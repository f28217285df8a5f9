package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// Diagnostic is one microvet finding, rendered as
// "file:line:col: analyzer: message".
type Diagnostic struct {
	Pos      token.Position
	Analyzer string
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// Package is one parsed and type-checked package under analysis. All
// packages of a run share one token.FileSet, and module-local imports
// resolve to the same *types.Package instances, so type identity holds
// across packages.
type Package struct {
	Path  string // import path ("micronets/internal/serve")
	Name  string
	Dir   string
	Files []*ast.File // non-test files; a test package (LoadTests) adds its _test.go files
	Types *types.Package
	Info  *types.Info
	// ForTest is, on a test package, the import path of the package its
	// tests are for.
	ForTest string
}

// Pass is the per-analyzer view of a run: every loaded package plus a
// report sink. Analyzers are module-scoped, not package-scoped, because
// several invariants (hot-path reachability, metric-name uniqueness)
// only exist across package boundaries.
type Pass struct {
	Fset *token.FileSet
	Pkgs []*Package
	// Users are packages whose uses count but which nothing checks (see
	// Loader.LoadUsers): test packages, bench/, the rest of the module.
	Users []*Package

	report func(Diagnostic)
	name   string
}

// Reportf records one diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{
		Pos:      p.Fset.Position(pos),
		Analyzer: p.name,
		Message:  fmt.Sprintf(format, args...),
	})
}

// ErrorType is the universe error type, the thing droppederr looks for.
var ErrorType = types.Universe.Lookup("error").Type()

// Analyzer is one microvet check. Run receives every loaded package at
// once and reports findings through the pass.
type Analyzer interface {
	Name() string
	Doc() string
	Run(pass *Pass)
}

// DefaultAnalyzers returns the full microvet suite with the repository's
// production configuration.
func DefaultAnalyzers() []Analyzer {
	return []Analyzer{
		NewHotPathAlloc(),
		NewPreparedWrite(),
		NewDroppedErr(),
		NewLockGuard(),
		NewMetricName(),
		NewPkgDoc(),
		NewDeadExport(),
	}
}

// ignoreDirective is one parsed `//microvet:ignore <analyzer> <reason>`
// comment. It blesses diagnostics from that analyzer on its own line and
// on the line directly below it (for comment-above style).
type ignoreDirective struct {
	analyzer string
	reason   string
	pos      token.Pos
}

const (
	ignorePrefix = "microvet:ignore"
	// stopPrefix marks a function hotpathalloc must not traverse into: a
	// deliberate slow-path boundary (lazy construction, opt-in tracing).
	// Grammar: //microvet:hotpath-stop <reason>, on the func's doc.
	stopPrefix = "microvet:hotpath-stop"
)

// parseIgnores scans a file's comments for microvet:ignore directives,
// keyed by the line they bless. Directives missing a reason are reported
// as diagnostics themselves: a suppression without a why is review debt.
func parseIgnores(fset *token.FileSet, f *ast.File, report func(Diagnostic)) map[int][]ignoreDirective {
	out := make(map[int][]ignoreDirective)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			text := strings.TrimPrefix(c.Text, "//")
			text = strings.TrimSpace(text)
			if !strings.HasPrefix(text, ignorePrefix) {
				continue
			}
			rest := strings.TrimSpace(strings.TrimPrefix(text, ignorePrefix))
			name, reason, _ := strings.Cut(rest, " ")
			reason = strings.TrimSpace(reason)
			pos := fset.Position(c.Pos())
			if name == "" || reason == "" {
				report(Diagnostic{Pos: pos, Analyzer: "microvet",
					Message: "microvet:ignore needs an analyzer name and a reason: //microvet:ignore <analyzer> <why this is fine>"})
				continue
			}
			d := ignoreDirective{analyzer: name, reason: reason, pos: c.Pos()}
			// A directive blesses its own line (trailing style) and the
			// next line (comment-above style).
			out[pos.Line] = append(out[pos.Line], d)
			out[pos.Line+1] = append(out[pos.Line+1], d)
		}
	}
	return out
}

// Run executes the analyzers over pkgs, with users as context only,
// applies suppression directives, and returns the surviving diagnostics
// sorted by position.
func Run(fset *token.FileSet, pkgs, users []*Package, analyzers []Analyzer) []Diagnostic {
	var raw []Diagnostic
	sink := func(d Diagnostic) { raw = append(raw, d) }

	// Index suppressions per file up front; malformed directives report
	// straight into the sink and are never applied.
	ignores := make(map[string]map[int][]ignoreDirective)
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			name := fset.Position(f.Pos()).Filename
			ignores[name] = parseIgnores(fset, f, sink)
		}
	}

	for _, a := range analyzers {
		pass := &Pass{Fset: fset, Pkgs: pkgs, Users: users, report: sink, name: a.Name()}
		a.Run(pass)
	}

	var out []Diagnostic
	for _, d := range raw {
		if suppressed(ignores, d) {
			continue
		}
		out = append(out, d)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return out
}

func suppressed(ignores map[string]map[int][]ignoreDirective, d Diagnostic) bool {
	if d.Analyzer == "microvet" {
		return false // the suppression protocol itself cannot be suppressed
	}
	for _, dir := range ignores[d.Pos.Filename][d.Pos.Line] {
		if dir.analyzer == d.Analyzer {
			return true
		}
	}
	return false
}

// ---- shared AST/type helpers used by several analyzers ----

// namedOf unwraps pointers and returns the *types.Named beneath a type,
// or nil.
func namedOf(t types.Type) *types.Named {
	if t == nil {
		return nil
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	n, _ := t.(*types.Named)
	if n == nil {
		if p, ok := t.(*types.Pointer); ok {
			n, _ = p.Elem().(*types.Named)
		}
	}
	return n
}

// qualifiedName renders a named type as "pkg/path.TypeName" ("" for nil
// or unnamed).
func qualifiedName(n *types.Named) string {
	if n == nil || n.Obj() == nil {
		return n.String()
	}
	if n.Obj().Pkg() == nil {
		return n.Obj().Name()
	}
	return n.Obj().Pkg().Path() + "." + n.Obj().Name()
}

// funcKey names a FuncDecl as "pkg/path.Func" or "pkg/path.Recv.Method"
// (pointer receivers stripped), the grammar hotpathalloc roots use.
func funcKey(pkgPath string, decl *ast.FuncDecl) string {
	if decl.Recv == nil || len(decl.Recv.List) == 0 {
		return pkgPath + "." + decl.Name.Name
	}
	t := decl.Recv.List[0].Type
	for {
		switch x := t.(type) {
		case *ast.StarExpr:
			t = x.X
		case *ast.ParenExpr:
			t = x.X
		case *ast.IndexExpr: // generic receiver
			t = x.X
		case *ast.Ident:
			return pkgPath + "." + x.Name + "." + decl.Name.Name
		default:
			return pkgPath + ".?." + decl.Name.Name
		}
	}
}

// docHas reports whether a declaration's doc (or trailing line comment)
// contains a directive with the given prefix, returning its argument.
func docHas(doc *ast.CommentGroup, prefix string) (string, bool) {
	if doc == nil {
		return "", false
	}
	for _, c := range doc.List {
		text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
		if strings.HasPrefix(text, prefix) {
			return strings.TrimSpace(strings.TrimPrefix(text, prefix)), true
		}
	}
	return "", false
}
