package analysis

import (
	"go/ast"
	"go/types"
	"slices"
	"strings"
)

// DeadExport flags an exported identifier of an internal package — a
// package-level func, type, var or const, or a method of an exported
// type — that nothing uses outside its own package's tests. Uses count
// from every non-test file of the module (its own package's included),
// from bench/, and from other packages' tests; a use inside the
// identifier's own declaration (recursion, a type's own methods) does
// not.
//
// Methods widen through interfaces like hotpathalloc's class-hierarchy
// analysis: a method is used when its type implements an interface whose
// method of that name is named where uses count, or is declared outside
// the module (the standard library calls http.ResponseWriter's Write
// where no use is visible).
type DeadExport struct{}

// NewDeadExport returns the analyzer.
func NewDeadExport() *DeadExport { return &DeadExport{} }

func (*DeadExport) Name() string { return "deadexport" }
func (*DeadExport) Doc() string {
	return "exported internal identifiers need a user outside their own package's tests"
}

func (*DeadExport) Run(pass *Pass) {
	all := slices.Concat(pass.Pkgs, pass.Users)
	used := make(map[types.Object]bool)
	called := make(map[*types.Func]bool) // interface methods that may be called
	for _, pkg := range all {
		for _, f := range pkg.Files {
			for _, unit := range declUnits(f) {
				self := declared(pkg, unit)
				if fd, ok := unit.(*ast.FuncDecl); ok && fd.Recv != nil && len(self) == 1 {
					if named := namedOf(self[0].(*types.Func).Signature().Recv().Type()); named != nil {
						self = append(self, named.Obj())
					}
				}
				ast.Inspect(unit, func(n ast.Node) bool {
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := pkg.Info.Uses[id]
					if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() == pkg.ForTest {
						return true // a package's own tests are not users
					}
					switch o := obj.(type) {
					case *types.Func:
						obj = o.Origin()
						if recv := o.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
							called[o.Origin()] = true
						}
					case *types.Var:
						obj = o.Origin()
					}
					if !slices.Contains(self, obj) {
						used[obj] = true
					}
					return true
				})
			}
		}
	}
	// Every method of an interface declared outside the module, through
	// the imports' imports: encoding/json calls encoding.TextMarshaler's.
	seen := make(map[*types.Package]bool)
	for _, pkg := range all {
		seen[pkg.Types] = true
	}
	var outside func(imps []*types.Package)
	outside = func(imps []*types.Package) {
		for _, imp := range imps {
			if seen[imp] {
				continue
			}
			seen[imp] = true
			for _, name := range imp.Scope().Names() {
				if iface, ok := imp.Scope().Lookup(name).Type().Underlying().(*types.Interface); ok {
					for m := range iface.Methods() {
						called[m] = true
					}
				}
			}
			outside(imp.Imports())
		}
	}
	for _, pkg := range all {
		outside(pkg.Types.Imports())
	}
	called[ErrorType.Underlying().(*types.Interface).Method(0)] = true

	for _, pkg := range pass.Pkgs {
		if !strings.Contains(pkg.Path+"/", "/internal/") {
			continue
		}
		for _, f := range pkg.Files {
			for _, unit := range declUnits(f) {
				for _, obj := range declared(pkg, unit) {
					if !obj.Exported() || used[obj] {
						continue
					}
					what, name := "var", obj.Name()
					switch o := obj.(type) {
					case *types.TypeName:
						what = "type"
					case *types.Const:
						what = "const"
					case *types.Func:
						what = "func"
						if recv := o.Signature().Recv(); recv != nil {
							named := namedOf(recv.Type())
							if named == nil || !named.Obj().Exported() || viaInterface(called, o) {
								continue
							}
							what, name = "method", named.Obj().Name()+"."+name
						}
					}
					pass.Reportf(obj.Pos(), "exported %s %s has no user outside its own package's tests: delete it, or move it into a _test.go file", what, name)
				}
			}
		}
	}
}

// viaInterface reports whether fn's receiver type implements an
// interface that may call a method of fn's name.
func viaInterface(called map[*types.Func]bool, fn *types.Func) bool {
	recv := fn.Signature().Recv().Type()
	for m := range called {
		iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
		if m.Name() == fn.Name() && (types.Implements(recv, iface) || types.Implements(types.NewPointer(recv), iface)) {
			return true
		}
	}
	return false
}

// declUnits splits a file into the units that declare package-level
// objects: each FuncDecl, and each spec of a GenDecl.
func declUnits(f *ast.File) []ast.Node {
	var units []ast.Node
	for _, decl := range f.Decls {
		if gd, ok := decl.(*ast.GenDecl); ok {
			for _, spec := range gd.Specs {
				units = append(units, spec)
			}
		} else {
			units = append(units, decl)
		}
	}
	return units
}

// declared returns the objects a declaration unit declares.
func declared(pkg *Package, unit ast.Node) []types.Object {
	var ids []*ast.Ident
	switch u := unit.(type) {
	case *ast.FuncDecl:
		ids = []*ast.Ident{u.Name}
	case *ast.TypeSpec:
		ids = []*ast.Ident{u.Name}
	case *ast.ValueSpec:
		ids = u.Names
	}
	var out []types.Object
	for _, id := range ids {
		if obj := pkg.Info.Defs[id]; obj != nil {
			out = append(out, obj)
		}
	}
	return out
}
