package analysis

import (
	"strings"
)

// PkgDoc requires that every first-class package carry a
// `// Package <name> ...` doc comment attached to a package clause
// (conventionally in doc.go). This is the CI teeth behind
// docs/ARCHITECTURE.md — a package can't join the public story without
// documenting itself.
type PkgDoc struct {
	// Packages lists the import paths (relative to the module root, e.g.
	// "internal/kernels") that must be documented. Paths not loaded in
	// the current run are ignored, so partial loads (fixtures) work.
	Packages []string
}

// NewPkgDoc returns the analyzer with the production package list.
func NewPkgDoc() *PkgDoc {
	return &PkgDoc{Packages: []string{
		"internal/analysis",
		"internal/graph",
		"internal/kernels",
		"internal/mcu",
		"internal/mesh",
		"internal/obs",
		"internal/search",
		"internal/serve",
		"internal/servegraph",
		"internal/tflm",
		"internal/zoo",
	}}
}

func (*PkgDoc) Name() string { return "pkgdoc" }
func (*PkgDoc) Doc() string {
	return "first-class packages must have a package doc comment"
}

func (a *PkgDoc) Run(pass *Pass) {
	required := make(map[string]bool, len(a.Packages))
	for _, p := range a.Packages {
		required[p] = true
	}
	for _, pkg := range pass.Pkgs {
		// Match on the path suffix so both real module paths
		// ("micronets/internal/serve") and fixture paths resolve.
		var matched bool
		for _, p := range a.Packages {
			if pkg.Path == p || strings.HasSuffix(pkg.Path, "/"+p) {
				matched = true
				break
			}
		}
		if !matched || len(pkg.Files) == 0 {
			continue
		}
		ok := false
		for _, f := range pkg.Files {
			if f.Doc == nil {
				continue
			}
			// The comment must introduce this package by name, not float
			// free ("// Package serve ...").
			if strings.HasPrefix(f.Doc.Text(), "Package "+pkg.Name+" ") {
				ok = true
				break
			}
		}
		if !ok {
			pass.Reportf(pkg.Files[0].Package,
				"package %s has no '// Package %s ...' doc comment (add a doc.go)", pkg.Path, pkg.Name)
		}
	}
}
