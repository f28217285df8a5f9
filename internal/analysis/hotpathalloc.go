package analysis

import (
	"go/ast"
	"go/types"
	"strings"
)

// HotPathAlloc is the static complement of the AllocsPerRun CI gates: no
// allocation-inducing construct may appear in a function statically
// reachable from the zero-alloc serve path. The roots are
// Interpreter.Invoke, the serve per-row path (version.infer: pool wait,
// copy in, Invoke, copy out), and the bound op closures produced by
// kernels.BindOp and the engines' bind* methods (closures built at
// Prepare time but *executed* per invoke).
//
// Reachability is a worklist over function declarations and literals:
//
//   - static calls and function-value references resolve through
//     go/types objects;
//   - interface method calls widen by class-hierarchy analysis over
//     every module-local named type;
//   - when a package first contributes a hot function, functions
//     referenced from its package-level var initializers join the set
//     (so a function-pointer dispatch table cannot hide its targets);
//   - a `//microvet:hotpath-stop <reason>` doc directive marks a
//     deliberate slow-path boundary (lazy pool growth, opt-in tracing)
//     that traversal does not cross.
//
// Inside a hot function the analyzer flags: make/new/append, slice and
// map composite literals, function literals (closure allocation), fmt.*
// calls, string concatenation, string<->[]byte conversions, and
// variadic-interface boxing. Intentional allocations on cold branches
// are blessed in place with //microvet:ignore hotpathalloc <reason>.
type HotPathAlloc struct {
	// Roots are funcKey patterns ("pkg/path.Recv.Method"; trailing *
	// is a prefix wildcard) whose bodies are hot.
	Roots []string
	// ClosureContainers are funcKey patterns whose function literals are
	// hot (the bound op closures) while the containing body itself is
	// bind-time code and stays cold unless reached by a call edge.
	ClosureContainers []string

	// Reachable is filled in by Run: the funcKeys of every hot function
	// declaration. Exported so tests can prove the reachability set
	// covers the same functions the AllocsPerRun gates measure.
	Reachable map[string]bool
	// Origin maps each reachable funcKey to the key of the unit that
	// first reached it ("" for roots) — the edge that explains WHY a
	// function is considered hot.
	Origin map[string]string
}

// NewHotPathAlloc returns the analyzer with the production roots.
func NewHotPathAlloc() *HotPathAlloc {
	return &HotPathAlloc{
		Roots: []string{
			"micronets/internal/tflm.Interpreter.Invoke",
			"micronets/internal/serve.version.infer",
		},
		ClosureContainers: []string{
			"micronets/internal/kernels.BindOp",
			"micronets/internal/kernels.refEngine.bind*",
			"micronets/internal/kernels.gemmEngine.bind*",
		},
	}
}

func (*HotPathAlloc) Name() string { return "hotpathalloc" }
func (*HotPathAlloc) Doc() string {
	return "no allocation-inducing constructs reachable from the zero-alloc serve path"
}

// unit is one analyzable function body: a declaration or a literal.
type unit struct {
	pkg  *Package
	decl *ast.FuncDecl // nil for literals
	lit  *ast.FuncLit  // nil for declarations
	key  string
}

func (u *unit) body() *ast.BlockStmt {
	if u.decl != nil {
		return u.decl.Body
	}
	return u.lit.Body
}

func matchPattern(patterns []string, key string) bool {
	for _, p := range patterns {
		if strings.HasSuffix(p, "*") {
			if strings.HasPrefix(key, strings.TrimSuffix(p, "*")) {
				return true
			}
		} else if p == key {
			return true
		}
	}
	return false
}

func (a *HotPathAlloc) Run(pass *Pass) {
	a.Reachable = make(map[string]bool)
	a.Origin = make(map[string]string)

	// Index every function declaration by key and by types.Object, and
	// every module-local named type for CHA.
	byKey := make(map[string]*unit)
	byObj := make(map[types.Object]*unit)
	stopped := make(map[*unit]bool)
	var namedTypes []*types.Named
	litUnits := make(map[*ast.FuncLit]*unit)

	for _, pkg := range pass.Pkgs {
		scope := pkg.Types.Scope()
		for _, name := range scope.Names() {
			if tn, ok := scope.Lookup(name).(*types.TypeName); ok && !tn.IsAlias() {
				if n, ok := tn.Type().(*types.Named); ok {
					namedTypes = append(namedTypes, n)
				}
			}
		}
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				u := &unit{pkg: pkg, decl: fd, key: funcKey(pkg.Path, fd)}
				byKey[u.key] = u
				if obj := pkg.Info.Defs[fd.Name]; obj != nil {
					byObj[obj] = u
				}
				if reason, ok := docHas(fd.Doc, stopPrefix); ok {
					if reason == "" {
						pass.Reportf(fd.Pos(), "microvet:hotpath-stop needs a reason: //microvet:hotpath-stop <why traversal stops here>")
					}
					stopped[u] = true
				}
			}
		}
	}
	litUnit := func(parent *unit, lit *ast.FuncLit) *unit {
		if u, ok := litUnits[lit]; ok {
			return u
		}
		u := &unit{pkg: parent.pkg, lit: lit, key: parent.key + "$lit"}
		litUnits[lit] = u
		return u
	}

	hot := make(map[*unit]bool)
	hotPkgs := make(map[*Package]bool)
	var work []*unit
	enqueue := func(u *unit, from string) {
		if u == nil || hot[u] || stopped[u] {
			return
		}
		hot[u] = true
		a.Origin[u.key] = from
		if u.decl != nil {
			a.Reachable[u.key] = true
		}
		work = append(work, u)
	}

	// Seed the roots and the container closures.
	for key, u := range byKey {
		if matchPattern(a.Roots, key) {
			enqueue(u, "")
		}
		if matchPattern(a.ClosureContainers, key) {
			parent := u
			ast.Inspect(u.body(), func(n ast.Node) bool {
				if lit, ok := n.(*ast.FuncLit); ok {
					enqueue(litUnit(parent, lit), "")
					return false // nested literals traverse when their parent runs
				}
				return true
			})
		}
	}

	// resolve maps a used function object to the units it may invoke:
	// its own body for concrete functions, every implementing method for
	// interface methods (CHA).
	resolve := func(fn *types.Func) []*unit {
		sig, ok := fn.Type().(*types.Signature)
		if !ok {
			return nil
		}
		recv := sig.Recv()
		if recv == nil || !types.IsInterface(recv.Type()) {
			if u := byObj[fn]; u != nil {
				return []*unit{u}
			}
			return nil
		}
		iface, ok := recv.Type().Underlying().(*types.Interface)
		if !ok {
			return nil
		}
		var out []*unit
		for _, n := range namedTypes {
			if types.IsInterface(n) {
				continue
			}
			if !types.Implements(n, iface) && !types.Implements(types.NewPointer(n), iface) {
				continue
			}
			obj, _, _ := types.LookupFieldOrMethod(types.NewPointer(n), true, fn.Pkg(), fn.Name())
			if m, ok := obj.(*types.Func); ok {
				if u := byObj[m]; u != nil {
					out = append(out, u)
				}
			}
		}
		return out
	}

	for len(work) > 0 {
		u := work[0]
		work = work[1:]

		// First hot function of a package: its package-level var
		// initializers' function references (the engine dispatch tables)
		// become reachable too.
		if !hotPkgs[u.pkg] {
			hotPkgs[u.pkg] = true
			for _, f := range u.pkg.Files {
				for _, decl := range f.Decls {
					gd, ok := decl.(*ast.GenDecl)
					if !ok {
						continue
					}
					for _, spec := range gd.Specs {
						vs, ok := spec.(*ast.ValueSpec)
						if !ok {
							continue
						}
						for _, val := range vs.Values {
							ast.Inspect(val, func(n ast.Node) bool {
								if id, ok := n.(*ast.Ident); ok {
									if fn, ok := u.pkg.Info.Uses[id].(*types.Func); ok {
										for _, t := range resolve(fn) {
											enqueue(t, u.pkg.Path+" package var init")
										}
									}
								}
								return true
							})
						}
					}
				}
			}
		}

		a.scanUnit(pass, u, func(lit *ast.FuncLit) { enqueue(litUnit(u, lit), u.key) },
			func(fn *types.Func) {
				for _, t := range resolve(fn) {
					enqueue(t, u.key)
				}
			})
	}
}

// scanUnit walks one hot function body (stopping at nested literals),
// flags allocation constructs, and feeds referenced functions and nested
// literals back to the worklist.
func (a *HotPathAlloc) scanUnit(pass *Pass, u *unit, onLit func(*ast.FuncLit), onFunc func(*types.Func)) {
	info := u.pkg.Info
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.FuncLit:
			if u.lit != x { // the unit itself is not its own nested literal
				pass.Reportf(x.Pos(), "closure allocation on the hot path")
				onLit(x)
				return false
			}
		case *ast.Ident:
			if fn, ok := info.Uses[x].(*types.Func); ok {
				onFunc(fn)
			}
		case *ast.CompositeLit:
			// Keep descending: elements may hide further allocations or
			// call edges of their own.
			switch info.Types[x].Type.Underlying().(type) {
			case *types.Slice:
				pass.Reportf(x.Pos(), "slice literal allocates on the hot path")
			case *types.Map:
				pass.Reportf(x.Pos(), "map literal allocates on the hot path")
			}
		case *ast.BinaryExpr:
			if x.Op.String() == "+" {
				// Constant-folded concatenation never reaches runtime.
				if tv := info.Types[x]; tv.Value == nil {
					if t := info.Types[x.X].Type; t != nil {
						if b, ok := t.Underlying().(*types.Basic); ok && b.Info()&types.IsString != 0 {
							pass.Reportf(x.OpPos, "string concatenation allocates on the hot path")
						}
					}
				}
			}
		case *ast.CallExpr:
			a.checkCall(pass, u, x)
		}
		return true
	}
	ast.Inspect(u.body(), walk)
}

func (a *HotPathAlloc) checkCall(pass *Pass, u *unit, call *ast.CallExpr) {
	info := u.pkg.Info
	fun := unparen(call.Fun)

	// Builtins.
	if id, ok := fun.(*ast.Ident); ok {
		if b, ok := info.Uses[id].(*types.Builtin); ok {
			switch b.Name() {
			case "make":
				pass.Reportf(call.Pos(), "make allocates on the hot path")
			case "new":
				pass.Reportf(call.Pos(), "new allocates on the hot path")
			case "append":
				pass.Reportf(call.Pos(), "append may grow its backing array on the hot path")
			}
			return
		}
	}

	// Conversions: string <-> []byte/[]rune copy their payload.
	if tv, ok := info.Types[fun]; ok && tv.IsType() {
		dst := tv.Type.Underlying()
		if len(call.Args) == 1 {
			src := info.Types[call.Args[0]].Type
			if src != nil && conversionAllocates(dst, src.Underlying()) {
				pass.Reportf(call.Pos(), "string/byte-slice conversion allocates on the hot path")
			}
		}
		return
	}

	// fmt.* calls allocate (boxing + formatting state).
	if sel, ok := fun.(*ast.SelectorExpr); ok {
		if pkgID, ok := sel.X.(*ast.Ident); ok {
			if pn, ok := info.Uses[pkgID].(*types.PkgName); ok && pn.Imported().Path() == "fmt" {
				pass.Reportf(call.Pos(), "fmt.%s allocates on the hot path", sel.Sel.Name)
				return
			}
		}
	}

	// Variadic ...interface{} parameters box their arguments.
	if sig, ok := info.Types[fun].Type.(*types.Signature); ok && sig.Variadic() && call.Ellipsis == 0 {
		last := sig.Params().At(sig.Params().Len() - 1)
		if slice, ok := last.Type().(*types.Slice); ok && types.IsInterface(slice.Elem()) {
			if len(call.Args) >= sig.Params().Len() {
				pass.Reportf(call.Pos(), "variadic call boxes arguments into interfaces on the hot path")
			}
		}
	}
}

func conversionAllocates(dst, src types.Type) bool {
	isStr := func(t types.Type) bool {
		b, ok := t.(*types.Basic)
		return ok && b.Info()&types.IsString != 0
	}
	isByteOrRuneSlice := func(t types.Type) bool {
		s, ok := t.(*types.Slice)
		if !ok {
			return false
		}
		b, ok := s.Elem().Underlying().(*types.Basic)
		return ok && (b.Kind() == types.Byte || b.Kind() == types.Rune ||
			b.Kind() == types.Uint8 || b.Kind() == types.Int32)
	}
	return (isStr(dst) && isByteOrRuneSlice(src)) || (isByteOrRuneSlice(dst) && isStr(src))
}
