package analysis

import (
	"bufio"
	"go/ast"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// expect is one golden diagnostic: file base name, line, analyzer.
type expect struct {
	file     string
	line     int
	analyzer string
}

var wantRE = regexp.MustCompile(`// want:([a-z]+)`)

// wantsFromFixture parses `// want:<analyzer>` end-of-line markers from
// every Go file in a fixture directory.
func wantsFromFixture(t *testing.T, dir string) map[expect]bool {
	t.Helper()
	out := make(map[expect]bool)
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if e.IsDir() || filepath.Ext(e.Name()) != ".go" {
			continue
		}
		f, err := os.Open(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			if m := wantRE.FindStringSubmatch(sc.Text()); m != nil {
				out[expect{file: e.Name(), line: line, analyzer: m[1]}] = true
			}
		}
		f.Close()
	}
	return out
}

// runFixture loads the given testdata/src/<name> dirs as packages under
// fake micronets/internal/fixture/ paths and runs the analyzers.
func runFixture(t *testing.T, analyzers []Analyzer, names ...string) []Diagnostic {
	t.Helper()
	loader := NewLoader(".")
	var pkgs []*Package
	for _, name := range names {
		dir := filepath.Join("testdata", "src", name)
		pkg, err := loader.LoadDir(dir, "micronets/internal/fixture/"+name)
		if err != nil {
			t.Fatalf("load fixture %s: %v", name, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return Run(loader.Fset, pkgs, nil, analyzers)
}

// checkGolden compares produced diagnostics against the fixture's want
// markers plus any extra expectations (for lines that can't carry a
// marker, like malformed suppression directives).
func checkGolden(t *testing.T, diags []Diagnostic, names []string, extra ...expect) {
	t.Helper()
	want := make(map[expect]bool)
	for _, name := range names {
		for e := range wantsFromFixture(t, filepath.Join("testdata", "src", name)) {
			want[e] = true
		}
	}
	for _, e := range extra {
		want[e] = true
	}
	got := make(map[expect]bool)
	for _, d := range diags {
		got[expect{file: filepath.Base(d.Pos.Filename), line: d.Pos.Line, analyzer: d.Analyzer}] = true
	}
	for e := range want {
		if !got[e] {
			t.Errorf("missing diagnostic: %s:%d: %s", e.file, e.line, e.analyzer)
		}
	}
	for e := range got {
		if !want[e] {
			t.Errorf("unexpected diagnostic: %s:%d: %s", e.file, e.line, e.analyzer)
		}
	}
	if t.Failed() {
		for _, d := range diags {
			t.Logf("produced: %s", d)
		}
	}
}

func TestDroppedErrFixture(t *testing.T) {
	names := []string{"dropped"}
	diags := runFixture(t, []Analyzer{NewDroppedErr()}, names...)
	// The reason-less directive in missingReason() is itself a finding;
	// it sits on its own line, which a marker comment cannot share.
	checkGolden(t, diags, names, expect{file: "dropped.go", line: 37, analyzer: "microvet"})
}

func TestMetricNameFixture(t *testing.T) {
	names := []string{"metricsa", "metricsb"}
	diags := runFixture(t, []Analyzer{NewMetricName()}, names...)
	checkGolden(t, diags, names)
}

func TestPkgDocFixture(t *testing.T) {
	names := []string{"nodoc"}
	a := &PkgDoc{Packages: []string{"fixture/nodoc"}}
	diags := runFixture(t, []Analyzer{a}, names...)
	checkGolden(t, diags, names)
}

func TestPreparedWriteFixture(t *testing.T) {
	names := []string{"prepared"}
	a := &PreparedWrite{
		Targets:       []string{"micronets/internal/fixture/prepared.PreparedModel"},
		AllowPrefixes: []string{"Prepare", "prepare"},
	}
	diags := runFixture(t, []Analyzer{a}, names...)
	checkGolden(t, diags, names)
}

func TestLockGuardFixture(t *testing.T) {
	names := []string{"locks"}
	diags := runFixture(t, []Analyzer{NewLockGuard()}, names...)
	checkGolden(t, diags, names)
}

func TestHotPathAllocFixture(t *testing.T) {
	names := []string{"hot"}
	a := &HotPathAlloc{
		Roots:             []string{"micronets/internal/fixture/hot.thing.Invoke"},
		ClosureContainers: []string{"micronets/internal/fixture/hot.bindIt"},
	}
	diags := runFixture(t, []Analyzer{a}, names...)
	checkGolden(t, diags, names)

	// The fixture's reachability set must prove the traversal rules: the
	// root, the static callee, the CHA-resolved interface method, the
	// package-var function, and NOT the stopped function.
	for _, key := range []string{
		"micronets/internal/fixture/hot.thing.Invoke",
		"micronets/internal/fixture/hot.thing.step",
		"micronets/internal/fixture/hot.fastEngine.run",
		"micronets/internal/fixture/hot.viaVar",
	} {
		if !a.Reachable[key] {
			t.Errorf("expected %s in the reachable set", key)
		}
	}
	if a.Reachable["micronets/internal/fixture/hot.cold"] {
		t.Error("hotpath-stop boundary was traversed: cold is in the reachable set")
	}
	if a.Reachable["micronets/internal/fixture/hot.bindIt"] {
		t.Error("closure container body must stay cold unless reached by a call edge")
	}
}

// TestDeadExportFixture loads lib and other as analyzed packages, their
// tests and a bench-like package as users: lib's markers are the dead
// exports. Without the bench-like user, what only it calls is dead too.
func TestDeadExportFixture(t *testing.T) {
	run := func(withBench bool) []Diagnostic {
		loader := NewLoader(".")
		dir := filepath.Join("testdata", "src", "deadexport")
		var pkgs, users []*Package
		for _, name := range []string{"lib", "other"} {
			pkg, err := loader.LoadDir(filepath.Join(dir, name), "micronets/internal/fixture/deadexport/"+name)
			if err != nil {
				t.Fatalf("load fixture %s: %v", name, err)
			}
			pkgs = append(pkgs, pkg)
			tests, err := loader.LoadTests(pkg)
			if err != nil {
				t.Fatalf("load %s tests: %v", name, err)
			}
			users = append(users, tests...)
		}
		if withBench {
			bench, err := loader.LoadDir(filepath.Join(dir, "bench"), "micronets/fixturebench")
			if err != nil {
				t.Fatalf("load bench fixture: %v", err)
			}
			users = append(users, bench)
		}
		return Run(loader.Fset, pkgs, users, []Analyzer{NewDeadExport()})
	}
	checkGolden(t, run(true), []string{"deadexport/lib", "deadexport/other"})

	dead := make(map[string]bool)
	for _, d := range run(false) {
		dead[d.Message] = true
	}
	for _, what := range []string{"func Entry", "func Wrap"} {
		msg := "exported " + what + " has no user outside its own package's tests: delete it, or move it into a _test.go file"
		if !dead[msg] {
			t.Errorf("without the bench-like user, %s must be a finding", what)
		}
	}
}

// TestRealTreeCleanAndCovered is the drift gate: the production suite
// must be clean on the real module, and the hotpathalloc reachability
// set must cover the same functions the AllocsPerRun benchmarks gate.
func TestRealTreeCleanAndCovered(t *testing.T) {
	loader := NewLoader(".")
	pkgs, err := loader.Load("micronets/...")
	if err != nil {
		t.Fatalf("load module: %v", err)
	}
	users, err := loader.LoadUsers(pkgs)
	if err != nil {
		t.Fatalf("load users: %v", err)
	}
	hot := NewHotPathAlloc()
	analyzers := []Analyzer{hot, NewPreparedWrite(), NewDroppedErr(), NewLockGuard(), NewMetricName(), NewPkgDoc(), NewDeadExport()}
	diags := Run(loader.Fset, pkgs, users, analyzers)
	for _, d := range diags {
		t.Errorf("real tree not clean: %s", d)
	}
	for _, key := range []string{
		"micronets/internal/tflm.Interpreter.Invoke",
		"micronets/internal/serve.version.infer",
		"micronets/internal/serve.Pool.Get",
		"micronets/internal/serve.Pool.Put",
		"micronets/internal/kernels.gemmStoreRowsWide",
		"micronets/internal/kernels.gemmDensePanelsWide",
		"micronets/internal/kernels.gemmRowsSIMD",
		"micronets/internal/kernels.dwRowsSIMD",
		"micronets/internal/kernels.Conv2D",
		"micronets/internal/kernels.Parallel.For",
	} {
		if !hot.Reachable[key] {
			t.Errorf("hotpathalloc must cover %s (the AllocsPerRun gate measures it)", key)
		}
	}

	// Every stop boundary is a reviewable claim, so the set is pinned: a
	// new one (or a stale one left behind by a deleted path) fails here.
	wantStops := map[string]bool{
		"micronets/internal/kernels.initPool": true,
		"micronets/internal/obs.Trace.Add":    true,
	}
	stops := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, decl := range f.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				if _, stop := docHas(fd.Doc, stopPrefix); stop {
					stops++
					if key := funcKey(pkg.Path, fd); !wantStops[key] {
						t.Errorf("unexpected microvet:hotpath-stop on %s", key)
					}
				}
			}
		}
	}
	if stops != len(wantStops) {
		t.Errorf("module carries %d hotpath-stop directives, want exactly %d", stops, len(wantStops))
	}

	// Suppressions only ratchet down: lower maxIgnores when one goes,
	// never raise it to make room for a new one.
	const maxIgnores = 7
	ignores := 0
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(c.Text, "//")), ignorePrefix) {
						ignores++
					}
				}
			}
		}
	}
	if ignores > maxIgnores {
		t.Errorf("module carries %d microvet:ignore directives, want at most %d", ignores, maxIgnores)
	}
}

// TestSuppressionScope verifies a blessing only silences its own
// analyzer: a droppederr ignore must not hide a hotpathalloc finding on
// the same line (exercised implicitly by every fixture above) and an
// unknown-analyzer ignore suppresses nothing.
func TestSuppressionScope(t *testing.T) {
	names := []string{"dropped"}
	// Run hotpathalloc over the dropped fixture: nothing is hot (no
	// roots match), so the only finding is the driver-level one for the
	// fixture's reason-less directive — which fires no matter which
	// analyzers run.
	diags := runFixture(t, []Analyzer{NewHotPathAlloc()}, names...)
	if len(diags) != 1 || diags[0].Analyzer != "microvet" {
		t.Errorf("hotpathalloc with no matching roots must only surface the malformed directive, got %v", diags)
	}
}
