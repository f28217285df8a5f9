package serve

import (
	"context"
	"errors"
	"io"
	"log/slog"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"micronets/internal/arch"
	"micronets/internal/tflm"
	"micronets/internal/zoo"
)

// testSpec returns a private copy of a zoo spec (so tests can rename it
// without mutating the shared catalogue).
func testSpec(t *testing.T, name string) *arch.Spec {
	t.Helper()
	e, err := zoo.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	cp := *e.Spec
	cp.Blocks = append([]arch.Block(nil), e.Spec.Blocks...)
	return &cp
}

// arenaBytesOf plans a spec's one-row arena — what the repository charges
// per pooled interpreter.
func arenaBytesOf(t *testing.T, spec *arch.Spec, opts ModelOptions) int {
	t.Helper()
	m, err := opts.Lower(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tflm.PlanMemory(m)
	if err != nil {
		t.Fatal(err)
	}
	return plan.ArenaBytes
}

// weightBytesOf is the shared prepared-weight cost (packed panels, folded
// biases, prefix sums) the repository charges once per version, regardless
// of pool size.
func weightBytesOf(t *testing.T, spec *arch.Spec, opts ModelOptions) int {
	t.Helper()
	m, err := opts.Lower(spec)
	if err != nil {
		t.Fatal(err)
	}
	prep, err := tflm.Prepare(m)
	if err != nil {
		t.Fatal(err)
	}
	return prep.WeightBytes()
}

// TestBudgetOfOneArenaYieldsPoolSizeOne is the ROADMAP item made a test:
// pool size derives from the RAM budget via tflm.PlanMemory, so a budget
// of the shared weights plus exactly one arena must collapse to one
// replica — never a fixed default count.
func TestBudgetOfOneArenaYieldsPoolSizeOne(t *testing.T) {
	spec := testSpec(t, "MicroNet-KWS-S")
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	oneArena := arenaBytesOf(t, spec, opts)
	weights := weightBytesOf(t, spec, opts)

	r := NewRepository(RepositoryConfig{
		Logger:         discardLogger(),
		RAMBudgetBytes: weights + oneArena,
		PoolSize:       8,
	})
	defer r.Close()
	st, err := r.Load(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.PoolSize != 1 {
		t.Fatalf("one-arena budget planned pool %d, want 1", st.PoolSize)
	}
	if st.PlannedRAMBytes != weights+oneArena || st.ArenaBytesPerReplica != oneArena || st.SharedWeightBytes != weights {
		t.Fatalf("planned %d bytes (per replica %d, weights %d), want weights %d + the one arena %d",
			st.PlannedRAMBytes, st.ArenaBytesPerReplica, st.SharedWeightBytes, weights, oneArena)
	}
	if got := r.PlannedRAMBytes(); got != weights+oneArena {
		t.Fatalf("repository reservation %d, want %d", got, weights+oneArena)
	}
}

// TestPlannedRAMSharesWeightsAcrossReplicas pins the shared-weights
// accounting directly: growing the pool from one replica to four must add
// exactly three arenas to the planned RAM — the prepared weight panels are
// charged once per version, never per replica.
func TestPlannedRAMSharesWeightsAcrossReplicas(t *testing.T) {
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	planned := func(pool int) (ModelStatus, int) {
		spec := testSpec(t, "MicroNet-KWS-S")
		r := NewRepository(RepositoryConfig{
			Logger:   discardLogger(),
			PoolSize: pool,
		})
		defer r.Close()
		st, err := r.Load(spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		return st, r.PlannedRAMBytes()
	}
	st1, repo1 := planned(1)
	st4, repo4 := planned(4)
	if st1.PoolSize != 1 || st4.PoolSize != 4 {
		t.Fatalf("pool sizes %d and %d, want 1 and 4", st1.PoolSize, st4.PoolSize)
	}
	if st1.SharedWeightBytes == 0 || st1.SharedWeightBytes != st4.SharedWeightBytes {
		t.Fatalf("shared weight bytes %d vs %d, want equal and non-zero",
			st1.SharedWeightBytes, st4.SharedWeightBytes)
	}
	wantDelta := 3 * st1.ArenaBytesPerReplica
	if got := st4.PlannedRAMBytes - st1.PlannedRAMBytes; got != wantDelta {
		t.Fatalf("4 replicas plan %d more bytes than 1, want exactly 3 arenas = %d (weights double-charged?)",
			got, wantDelta)
	}
	if got := repo4 - repo1; got != wantDelta {
		t.Fatalf("repository reservations differ by %d, want %d", got, wantDelta)
	}
}

// TestBudgetScalesBatchAndPool: the budget scales the pool one arena at a
// time — one byte short of a second arena still plans one replica, a
// whole second arena plans two, and no budget plans past PoolSize. (Every
// replica runs batch 1, so the pool is the only axis left to scale.)
func TestBudgetScalesBatchAndPool(t *testing.T) {
	spec := testSpec(t, "DSCNN-S")
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	arena := arenaBytesOf(t, spec, opts)
	weights := weightBytesOf(t, spec, opts)

	// Weights are charged once per version, so one more arena of budget —
	// not weights+arena — buys each further replica.
	for _, tc := range []struct{ budget, wantPool int }{
		{weights + 2*arena - 1, 1},
		{weights + 2*arena, 2},
		{weights + 100*arena, 4},
	} {
		r := NewRepository(RepositoryConfig{
			Logger:         discardLogger(),
			RAMBudgetBytes: tc.budget,
			PoolSize:       4,
		})
		st, err := r.Load(spec, opts)
		r.Close()
		if err != nil {
			t.Fatal(err)
		}
		if st.PoolSize != tc.wantPool {
			t.Fatalf("budget %d planned pool %d, want %d", tc.budget, st.PoolSize, tc.wantPool)
		}
	}
}

// TestBudgetChargesBatchOneArena: under a budget a version reserves the
// arena its pooled interpreters actually allocate — the one-row
// tflm.PlanMemory arena — once per replica on top of the shared weights.
func TestBudgetChargesBatchOneArena(t *testing.T) {
	spec := testSpec(t, "MicroNet-KWS-S")
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	m, err := opts.Lower(spec)
	if err != nil {
		t.Fatal(err)
	}
	plan, err := tflm.PlanMemory(m)
	if err != nil {
		t.Fatal(err)
	}

	r := NewRepository(RepositoryConfig{
		Logger:         discardLogger(),
		RAMBudgetBytes: 16 << 20,
		PoolSize:       2,
	})
	defer r.Close()
	st, err := r.Load(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	if st.ArenaBytesPerReplica != plan.ArenaBytes {
		t.Fatalf("arena_bytes_per_replica = %d, want the one-row plan's %d", st.ArenaBytesPerReplica, plan.ArenaBytes)
	}
	if want := st.SharedWeightBytes + st.PoolSize*plan.ArenaBytes; st.PlannedRAMBytes != want || st.PoolSize != 2 {
		t.Fatalf("planned %d bytes at pool %d, want weights %d + 2 × %d = %d",
			st.PlannedRAMBytes, st.PoolSize, st.SharedWeightBytes, plan.ArenaBytes, want)
	}
}

// TestBudgetRejectionIsStructured: a load that cannot fit even one
// replica fails with a *BudgetError carrying the exact byte accounting,
// and reserves nothing.
func TestBudgetRejectionIsStructured(t *testing.T) {
	small := testSpec(t, "DSCNN-S")
	big := testSpec(t, "MicroNet-KWS-S")
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	smallArena := arenaBytesOf(t, small, opts)
	bigArena := arenaBytesOf(t, big, opts)
	if bigArena <= smallArena {
		t.Fatalf("test premise broken: %d <= %d", bigArena, smallArena)
	}
	smallWeights := weightBytesOf(t, small, opts)
	bigWeights := weightBytesOf(t, big, opts)
	smallCost := smallWeights + smallArena

	r := NewRepository(RepositoryConfig{
		Logger:         discardLogger(),
		RAMBudgetBytes: smallCost,
		PoolSize:       1,
	})
	defer r.Close()
	if _, err := r.Load(small, opts); err != nil {
		t.Fatal(err)
	}
	_, err := r.Load(big, opts)
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("over-budget load returned %v, want *BudgetError", err)
	}
	if be.Model != big.Name || be.NeededBytes != bigWeights+bigArena ||
		be.BudgetBytes != smallCost || be.PlannedBytes != smallCost {
		t.Fatalf("BudgetError fields %+v; want model %s needed %d budget %d planned %d",
			be, big.Name, bigWeights+bigArena, smallCost, smallCost)
	}
	// The failed load must not leak a reservation or an index row.
	if got := r.PlannedRAMBytes(); got != smallCost {
		t.Fatalf("failed load leaked reservation: planned %d, want %d", got, smallCost)
	}
	if idx := r.Index(); len(idx) != 1 || idx[0].Name != small.Name {
		t.Fatalf("failed load leaked an index row: %+v", idx)
	}
}

// TestLoadIdempotentAndSwapVersions: re-loading the identical spec+options
// is a no-op (same version, no new lowering); loading the same name with
// different options is a blue/green swap to version 2, and the replaced
// version drains away from the index.
func TestLoadIdempotentAndSwapVersions(t *testing.T) {
	spec := testSpec(t, "DSCNN-S")
	r := NewRepository(RepositoryConfig{PoolSize: 1, Logger: discardLogger()})
	defer r.Close()

	st1, err := r.Load(spec, ModelOptions{Seed: 1, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	low1 := r.Lowerings()
	again, err := r.Load(spec, ModelOptions{Seed: 1, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if again.Version != st1.Version || r.Lowerings() != low1 {
		t.Fatalf("idempotent re-load went to version %d (lowerings %d -> %d)",
			again.Version, low1, r.Lowerings())
	}

	st2, err := r.Load(spec, ModelOptions{Seed: 2, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if st2.Version != st1.Version+1 || st2.State != StateReady {
		t.Fatalf("swap produced %+v, want READY version %d", st2, st1.Version+1)
	}
	// The old version drains (asynchronously) out of the index.
	waitFor(t, func() bool {
		idx := r.Index()
		return len(idx) == 1 && idx[0].Version == st2.Version
	}, "old version to finish draining")

	// Unload retires the name entirely.
	if err := r.Unload(spec.Name); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return len(r.Index()) == 0 }, "unload to empty the index")
	if _, err := r.Infer(context.Background(), spec.Name, make([]int8, 16000)); err == nil {
		t.Fatal("infer after unload must fail")
	}
	var nl *NotLoadedError
	if err := r.Unload(spec.Name); !errors.As(err, &nl) {
		t.Fatalf("double unload returned %v, want *NotLoadedError", err)
	}
	if got := r.PlannedRAMBytes(); got != 0 {
		t.Fatalf("retired repository still reserves %d bytes", got)
	}
}

// The four TestRegistry* tests below are the identity ledger of the
// deleted lowering cache, carried over to the one lifecycle that remains:
// what used to be "same cache entry" is now "same version, no new
// lowering". Their names are kept so the suite's history stays comparable.

// TestRegistryCachesLowering: a zoo name loaded twice under the same
// options lowers once; a different seed is a different model.
func TestRegistryCachesLowering(t *testing.T) {
	r := NewRepository(RepositoryConfig{PoolSize: 1, Logger: discardLogger()})
	defer r.Close()
	opts := ModelOptions{Seed: 42, AppendSoftmax: true}
	st1, err := r.LoadZoo("MicroNet-KWS-S", opts)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := r.LoadZoo("MicroNet-KWS-S", opts)
	if err != nil {
		t.Fatal(err)
	}
	if st1.Version != st2.Version || r.Lowerings() != 1 {
		t.Fatalf("same name+options went to version %d -> %d with %d lowerings, want one of each",
			st1.Version, st2.Version, r.Lowerings())
	}
	if _, err := r.LoadZoo("MicroNet-KWS-S", ModelOptions{Seed: 43, AppendSoftmax: true}); err != nil {
		t.Fatal(err)
	}
	if n := r.Lowerings(); n != 2 {
		t.Fatalf("lowerings after seed change = %d, want 2", n)
	}
}

// TestRegistrySpecFingerprint: a rebuilt spec with the same name but
// different blocks is a different model — a new version, not an
// idempotent hit on the old one.
func TestRegistrySpecFingerprint(t *testing.T) {
	r := NewRepository(RepositoryConfig{PoolSize: 1, Logger: discardLogger()})
	defer r.Close()
	opts := ModelOptions{Seed: 42}
	a := testSpec(t, "MicroNet-KWS-S")
	b := testSpec(t, "MicroNet-KWS-S")
	b.Blocks[1].OutC = 64 // same name, different architecture
	sta, err := r.Load(a, opts)
	if err != nil {
		t.Fatal(err)
	}
	stb, err := r.Load(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if stb.Version != sta.Version+1 || r.Lowerings() != 2 {
		t.Fatalf("distinct architectures with equal names collided: versions %d -> %d, %d lowerings",
			sta.Version, stb.Version, r.Lowerings())
	}
}

// TestRegistryNormalizesDefaultBits: zero-value and explicit int8
// datatypes lower identically, so they are one version identity.
func TestRegistryNormalizesDefaultBits(t *testing.T) {
	r := NewRepository(RepositoryConfig{PoolSize: 1, Logger: discardLogger()})
	defer r.Close()
	spec := testSpec(t, "MicroNet-KWS-S")
	a, err := r.Load(spec, ModelOptions{Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Load(spec, ModelOptions{WeightBits: 8, ActBits: 8, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if a.Version != b.Version || r.Lowerings() != 1 {
		t.Fatalf("bits {0,0} and {8,8} are versions %d and %d after %d lowerings, want one identity",
			a.Version, b.Version, r.Lowerings())
	}
}

func TestRegistryRejectsStatsOnlyAndUnknown(t *testing.T) {
	r := NewRepository(RepositoryConfig{Logger: discardLogger()})
	defer r.Close()
	if _, err := r.LoadZoo("ProxylessNas", ModelOptions{}); err == nil {
		t.Fatal("stats-only model must not be servable")
	}
	if _, err := r.LoadZoo("nope", ModelOptions{}); err == nil {
		t.Fatal("unknown model must error")
	}
	if idx := r.Index(); len(idx) != 0 || r.Lowerings() != 0 {
		t.Fatalf("rejected loads left index %+v and %d lowerings", idx, r.Lowerings())
	}
}

// TestRepositoryConcurrentLifecycle hammers load/unload/infer/index on
// one model name under -race. The invariants: an inference either
// completes with a full-length output (in-flight work on a draining
// version is never cut off) or fails with
// NotLoadedError because the name was unloaded at acquire time; the index
// only ever shows lifecycle states; and after the storm the repository is
// still fully serviceable.
func TestRepositoryConcurrentLifecycle(t *testing.T) {
	spec := testSpec(t, "DSCNN-S")
	e, err := zoo.Get("DSCNN-S")
	if err != nil {
		t.Fatal(err)
	}
	elems := e.Spec.InputH * e.Spec.InputW * e.Spec.InputC
	outElems := e.Spec.NumClasses

	r := NewRepository(RepositoryConfig{
		Logger:   discardLogger(),
		PoolSize: 2,
	})
	defer r.Close()
	if _, err := r.Load(spec, ModelOptions{Seed: 0, AppendSoftmax: true}); err != nil {
		t.Fatal(err)
	}

	const loaders, inferers = 2, 4
	const iters = 15
	var served, rejected atomic.Uint64
	var loaderWg, inferWg sync.WaitGroup
	stop := make(chan struct{})

	for w := 0; w < loaders; w++ {
		loaderWg.Add(1)
		go func(w int) {
			defer loaderWg.Done()
			for i := 0; i < iters; i++ {
				// Alternate seeds so every other load is a real swap, and
				// sometimes unload so inferers see the name vanish.
				if _, err := r.Load(spec, ModelOptions{Seed: int64(i % 2), AppendSoftmax: true}); err != nil {
					t.Errorf("loader %d: %v", w, err)
					return
				}
				if i%10 == 9 {
					var nl *NotLoadedError
					if err := r.Unload(spec.Name); err != nil && !errors.As(err, &nl) {
						t.Errorf("unloader: %v", err)
						return
					}
				}
			}
		}(w)
	}
	for w := 0; w < inferers; w++ {
		inferWg.Add(1)
		go func(w int) {
			defer inferWg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			row := make([]int8, elems)
			for {
				select {
				case <-stop:
					return
				default:
				}
				for i := range row {
					row[i] = int8(rng.Intn(17) - 8)
				}
				out, err := r.Infer(context.Background(), spec.Name, row)
				if err != nil {
					var nl *NotLoadedError
					if !errors.As(err, &nl) {
						t.Errorf("inferer %d: unexpected error %v", w, err)
						return
					}
					rejected.Add(1)
					continue
				}
				if len(out) != outElems {
					t.Errorf("inferer %d: got %d output elems, want %d (half-loaded entry?)", w, len(out), outElems)
					return
				}
				served.Add(1)
				time.Sleep(200 * time.Microsecond) // don't starve the loaders' lock
			}
		}(w)
	}
	indexDone := make(chan struct{})
	go func() {
		defer close(indexDone)
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, st := range r.Index() {
				switch st.State {
				case StateLoading, StateReady, StateDraining:
				default:
					t.Errorf("index shows state %q", st.State)
					return
				}
				if st.PlannedRAMBytes <= 0 || st.PoolSize < 1 {
					t.Errorf("index shows unplanned row %+v", st)
					return
				}
			}
			time.Sleep(500 * time.Microsecond)
		}
	}()

	// Wait for the loaders, then stop the data-path hammering.
	loaderDone := make(chan struct{})
	go func() { loaderWg.Wait(); close(loaderDone) }()
	select {
	case <-loaderDone:
	case <-time.After(60 * time.Second):
		t.Fatal("lifecycle storm wedged")
	}
	close(stop)
	inferWg.Wait()
	<-indexDone

	// The storm ends in a loaded state; the data path must still work.
	st, err := r.Load(spec, ModelOptions{Seed: 7, AppendSoftmax: true})
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateReady {
		t.Fatalf("final load state %s", st.State)
	}
	if _, err := r.Infer(context.Background(), spec.Name, make([]int8, elems)); err != nil {
		t.Fatalf("infer after storm: %v", err)
	}
	t.Logf("storm: %d served, %d rejected (name unloaded), final version %d",
		served.Load(), rejected.Load(), st.Version)
}

func writeTestSpecFile(t *testing.T, path string, specs ...*arch.Spec) {
	t.Helper()
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := zoo.WriteSpecFile(f, &zoo.SpecFile{GeneratedBy: "repository_test", Specs: specs}); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// waitFor polls a condition with a deadline, for the asynchronous drain
// path.
func waitFor(t *testing.T, cond func() bool, what string) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// discardLogger silences repository lifecycle logs in tests.
func discardLogger() *slog.Logger { return slog.New(slog.NewTextHandler(io.Discard, nil)) }

// TestParseRAMBudget: the accepted forms of `cmd/serve -ram-budget` parse
// to bytes; garbage, negatives and sizes whose bytes overflow an int are
// refused rather than wrapped to some other budget.
func TestParseRAMBudget(t *testing.T) {
	for _, c := range []struct {
		in   string
		want int
	}{
		{"320KB", 320 << 10},
		{"1MB", 1 << 20},
		{"512kb", 512 << 10},
		{"4096", 4096},
		{"4096B", 4096},
		{" 2 MB ", 2 << 20},
		{"0", 0},
		{"", 0},
	} {
		got, err := ParseRAMBudget(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParseRAMBudget(%q) = %d, %v; want %d", c.in, got, err, c.want)
		}
	}
	for _, in := range []string{
		"garbage", "KB", "1.5MB", "-1", "-320KB",
		"17592186044416MB",      // 2^44 MB is 2^64 bytes
		"9223372036854775807KB", // MaxInt64 KB
	} {
		if got, err := ParseRAMBudget(in); err == nil {
			t.Errorf("ParseRAMBudget(%q) = %d, want an error", in, got)
		}
	}
}
