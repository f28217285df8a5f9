package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
)

// Loader discovers, parses, and type-checks packages for analysis. It is
// deliberately stdlib-only: discovery shells out to `go list -json`,
// module-local imports are type-checked recursively from source, and
// standard-library imports are satisfied from the build cache's export
// data (`go list -export`), since Go no longer ships precompiled .a
// files for importer.Default to find.
type Loader struct {
	Fset *token.FileSet

	// Dir is the working directory for go list (the module root).
	Dir string

	modulePath string
	moduleDir  string
	exports    map[string]string // stdlib import path -> export file
	srcPkgs    map[string]*srcPkg
	stdImp     types.Importer
}

type srcPkg struct {
	pkg    *Package
	files  []string // absolute paths of the package's non-test Go files
	tests  []string // ... of its in-package _test.go files
	xtests []string // ... of its external (<pkg>_test) test files
	err    error
	done   bool
}

type listedPkg struct {
	ImportPath string
	Name       string
	Dir        string
	GoFiles    []string
	Standard   bool
	Export     string
	Module     *struct{ Path, Dir string }
	Error      *struct{ Err string }

	TestGoFiles, XTestGoFiles []string
}

// NewLoader returns a loader rooted at dir (the module root).
func NewLoader(dir string) *Loader {
	return &Loader{
		Fset:    token.NewFileSet(),
		Dir:     dir,
		exports: make(map[string]string),
		srcPkgs: make(map[string]*srcPkg),
	}
}

// Load resolves the go list patterns (e.g. "./...") to module packages
// and returns them parsed and type-checked, sorted by import path.
// Test files are excluded: microvet checks production invariants.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	listed, err := l.goList(append([]string{"-deps", "-export"}, patterns...))
	if err != nil {
		return nil, err
	}
	var roots []string
	for _, p := range listed {
		if p.Standard {
			if p.Export != "" {
				l.exports[p.ImportPath] = p.Export
			}
			continue
		}
		if p.Error != nil {
			return nil, fmt.Errorf("go list %s: %s", p.ImportPath, p.Error.Err)
		}
		if p.Module != nil && l.modulePath == "" {
			l.modulePath, l.moduleDir = p.Module.Path, p.Module.Dir
		}
	}
	// Re-list without -deps to get exactly the requested packages (the
	// -deps pass above was for harvesting stdlib export data and module
	// deps' metadata).
	direct, err := l.goList(patterns)
	if err != nil {
		return nil, err
	}
	for _, p := range direct {
		if !p.Standard {
			roots = append(roots, p.ImportPath)
			l.registerDir(p)
		}
	}
	for _, p := range listed {
		if !p.Standard {
			l.registerDir(p)
		}
	}

	var out []*Package
	for _, path := range roots {
		pkg, err := l.importSource(path)
		if err != nil {
			return nil, err
		}
		out = append(out, pkg)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Path < out[j].Path })
	return out, nil
}

// registerDir records a listed module package's metadata so importSource
// can parse it later without re-invoking go list.
func (l *Loader) registerDir(p listedPkg) {
	if _, ok := l.srcPkgs[p.ImportPath]; ok {
		return
	}
	abs := func(names []string) []string {
		out := make([]string, len(names))
		for i, n := range names {
			out[i] = filepath.Join(p.Dir, n)
		}
		return out
	}
	l.srcPkgs[p.ImportPath] = &srcPkg{
		pkg:    &Package{Path: p.ImportPath, Name: p.Name, Dir: p.Dir},
		files:  abs(p.GoFiles),
		tests:  abs(p.TestGoFiles),
		xtests: abs(p.XTestGoFiles),
	}
}

// goList runs `go list -json=<fields>` with the given arguments and
// decodes the stream of package objects.
func (l *Loader) goList(args []string) ([]listedPkg, error) {
	full := append([]string{"list", "-json=ImportPath,Name,Dir,GoFiles,TestGoFiles,XTestGoFiles,Standard,Export,Module,Error"}, args...)
	cmd := exec.Command("go", full...)
	cmd.Dir = l.Dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go list %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	dec := json.NewDecoder(bytes.NewReader(out))
	var pkgs []listedPkg
	for {
		var p listedPkg
		if err := dec.Decode(&p); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("decode go list output: %v", err)
		}
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

// importSource parses and type-checks a module-local package (memoized).
// Imports recurse: module-local paths come back through here, stdlib
// paths go through the gc export-data importer.
func (l *Loader) importSource(path string) (*Package, error) {
	sp, ok := l.srcPkgs[path]
	if !ok {
		// Not pre-registered (can happen for fixture imports); list it.
		listed, err := l.goList([]string{path})
		if err != nil || len(listed) == 0 {
			return nil, fmt.Errorf("cannot locate package %s: %v", path, err)
		}
		l.registerDir(listed[0])
		sp = l.srcPkgs[path]
	}
	if sp.done {
		return sp.pkg, sp.err
	}
	sp.done = true
	sp.err = l.check(sp)
	return sp.pkg, sp.err
}

// check parses sp's files and runs the type checker, filling in
// pkg.Files, pkg.Types, and pkg.Info.
func (l *Loader) check(sp *srcPkg) error {
	var files []*ast.File
	for _, name := range sp.files {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	sp.pkg.Files = files
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
	}
	conf := types.Config{
		Importer: importerFunc(func(path string) (*types.Package, error) {
			return l.importPath(path)
		}),
		Error: func(err error) {}, // collect only the first via Check's return
	}
	tpkg, err := conf.Check(sp.pkg.Path, l.Fset, files, info)
	if err != nil {
		return fmt.Errorf("typecheck %s: %v", sp.pkg.Path, err)
	}
	sp.pkg.Types = tpkg
	sp.pkg.Info = info
	return nil
}

// importPath satisfies an import encountered while type-checking:
// module-local packages recurse through importSource, unsafe maps to
// types.Unsafe, everything else is treated as stdlib and resolved from
// gc export data.
func (l *Loader) importPath(path string) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if l.modulePath != "" && (path == l.modulePath || strings.HasPrefix(path, l.modulePath+"/")) {
		pkg, err := l.importSource(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if _, ok := l.srcPkgs[path]; ok { // fixture-local fake module paths
		pkg, err := l.importSource(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	if l.stdImp == nil {
		l.stdImp = importer.ForCompiler(l.Fset, "gc", func(p string) (io.ReadCloser, error) {
			file, ok := l.exports[p]
			if !ok {
				// Export data not harvested yet (e.g. an import only
				// reachable from a fixture): ask go list for it.
				listed, err := l.goList([]string{"-export", p})
				if err != nil || len(listed) == 0 || listed[0].Export == "" {
					return nil, fmt.Errorf("no export data for %s: %v", p, err)
				}
				file = listed[0].Export
				l.exports[p] = file
			}
			return os.Open(file)
		})
	}
	return l.stdImp.Import(path)
}

type importerFunc func(string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// LoadDir loads a single directory of Go files as a package with the
// given synthetic import path. Used by tests to load fixture packages
// under testdata/ (which go list ignores) at import paths that match the
// analyzers' production configuration, e.g.
// "micronets/internal/fixture/droppederr", and by LoadUsers for bench/.
func (l *Loader) LoadDir(dir, importPath string) (*Package, error) {
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	if l.modulePath == "" {
		// Fixture loads may happen before any Load call; learn the module
		// path so module-local imports from fixtures still resolve.
		listed, err := l.goList([]string{"."})
		if err == nil && len(listed) > 0 && listed[0].Module != nil {
			l.modulePath, l.moduleDir = listed[0].Module.Path, listed[0].Module.Dir
		}
	}
	l.registerDir(listedPkg{ImportPath: importPath, Name: bp.Name, Dir: dir,
		GoFiles: bp.GoFiles, TestGoFiles: bp.TestGoFiles, XTestGoFiles: bp.XTestGoFiles})
	return l.importSource(importPath)
}

// LoadTests type-checks a loaded package's _test.go files the way go
// test builds them and returns its test packages: the in-package tests,
// checked together with the package's own files, and the external
// "<pkg>_test" package, which imports pkg.
func (l *Loader) LoadTests(pkg *Package) ([]*Package, error) {
	sp := l.srcPkgs[pkg.Path]
	var out []*Package
	for _, t := range []*srcPkg{
		{pkg: &Package{Path: pkg.Path, Dir: pkg.Dir, ForTest: pkg.Path}, files: append(slices.Clip(sp.files), sp.tests...), tests: sp.tests},
		{pkg: &Package{Path: pkg.Path + "_test", Dir: pkg.Dir, ForTest: pkg.Path}, files: sp.xtests, tests: sp.xtests},
	} {
		if len(t.tests) == 0 {
			continue
		}
		if err := l.check(t); err != nil {
			return nil, err
		}
		out = append(out, t.pkg)
	}
	return out, nil
}

// LoadUsers loads the code whose uses deadexport counts but no analyzer
// checks: the module's packages outside pkgs, the test packages of the
// whole module, and the benchmark harness in bench/ with its tests. The
// harness is a module of its own that ./... never reaches, yet it
// imports internal packages, so its uses are as real as cmd/'s.
func (l *Loader) LoadUsers(pkgs []*Package) ([]*Package, error) {
	listed, err := l.goList([]string{l.modulePath + "/..."})
	if err != nil {
		return nil, err
	}
	var users []*Package
	for _, p := range listed {
		if !slices.ContainsFunc(pkgs, func(pkg *Package) bool { return pkg.Path == p.ImportPath }) {
			l.registerDir(p)
			pkg, err := l.importSource(p.ImportPath)
			if err != nil {
				return nil, err
			}
			users = append(users, pkg)
		}
	}
	if _, err := os.Stat(filepath.Join(l.moduleDir, "bench", "go.mod")); err == nil {
		pkg, err := l.LoadDir(filepath.Join(l.moduleDir, "bench"), l.modulePath+"/bench")
		if err != nil {
			return nil, err
		}
		users = append(users, pkg)
	}
	for _, pkg := range slices.Concat(pkgs, users) {
		tests, err := l.LoadTests(pkg)
		if err != nil {
			return nil, err
		}
		users = append(users, tests...)
	}
	return users, nil
}
