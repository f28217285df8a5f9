package zoo

import (
	"math"
	"strings"
	"testing"
)

func TestCatalogComplete(t *testing.T) {
	cat := Catalog()
	required := []string{
		"MicroNet-KWS-L", "MicroNet-KWS-M", "MicroNet-KWS-S",
		"MicroNet-AD-L", "MicroNet-AD-M", "MicroNet-AD-S",
		"MicroNet-VWW-1", "MicroNet-VWW-2", "MicroNet-VWW-3", "MicroNet-VWW-4",
		"DSCNN-L", "DSCNN-M", "DSCNN-S",
		"MBNETV2-L", "MBNETV2-M", "MBNETV2-S",
		"FC-AE(Baseline)", "FC-AE(Wide)", "Conv-AE", "MBNETV2-0.5AD",
		"Person Detection", "ProxylessNas", "MSNet",
	}
	for _, name := range required {
		if cat[name] == nil {
			t.Errorf("catalogue missing %s", name)
		}
	}
}

// TestNamesListsCatalogue: Names, the list the CLIs print and iterate,
// holds every catalogue entry and each once.
func TestNamesListsCatalogue(t *testing.T) {
	cat := Catalog()
	names := Names()
	if len(names) < 20 || len(names) != len(cat) {
		t.Fatalf("Names lists %d models, the catalogue holds %d", len(names), len(cat))
	}
	for _, name := range names {
		if cat[name] == nil {
			t.Errorf("Names lists %s, which the catalogue lacks", name)
		}
	}
}

func TestGetUnknown(t *testing.T) {
	if _, err := Get("NotAModel"); err == nil {
		t.Fatal("unknown model must error")
	}
}

// TestSpecRejectsStatsOnlyAndUnknown: Spec returns the architecture of a
// model that has one and refuses both a stats-only comparison point and
// a name the catalogue lacks.
func TestSpecRejectsStatsOnlyAndUnknown(t *testing.T) {
	spec, err := Spec("MicroNet-KWS-S")
	if err != nil || spec == nil || spec.Name != "MicroNet-KWS-S" {
		t.Fatalf("Spec(MicroNet-KWS-S) = %v, %v", spec, err)
	}
	if _, err := Spec("ProxylessNas"); err == nil || !strings.Contains(err.Error(), "stats-only") {
		t.Fatalf("stats-only entry: err %v, want a stats-only refusal", err)
	}
	if _, err := Spec("nope"); err == nil || !strings.Contains(err.Error(), "unknown model") {
		t.Fatalf("unknown name: err %v, want an unknown-model refusal", err)
	}
}

// TestOpsMatchPaper pins every constructible model's op count to the
// paper's Table 3/4 values. Tolerances: Table 5-derived models are exact
// to a few percent; reconstructed models (VWW, baselines) within 15%;
// documented deviations looser.
func TestOpsMatchPaper(t *testing.T) {
	tolerances := map[string]float64{
		"MBNETV2-0.5AD": 0.40, // documented reconstruction deviation
		"DSCNN-S":       0.30,
		"DSCNN-M":       0.15,
		"MBNETV2-L":     0.15,
	}
	for name, e := range Catalog() {
		if e.Spec == nil || e.Paper.MOps == 0 {
			continue
		}
		a, err := e.Spec.Analyze()
		if err != nil {
			t.Fatalf("analyze %s: %v", name, err)
		}
		got := float64(a.TotalOps()) / 1e6
		tol := tolerances[name]
		if tol == 0 {
			tol = 0.10
		}
		if math.Abs(got-e.Paper.MOps)/e.Paper.MOps > tol {
			t.Errorf("%s: %.1f Mops vs paper %.1f (tol %.0f%%)", name, got, e.Paper.MOps, tol*100)
		}
	}
}

func TestTable5ArchitecturesExact(t *testing.T) {
	// Spot-check the Table 5 listings are encoded verbatim.
	kwsL := MicroNetKWSL()
	if len(kwsL.Blocks) != 10 { // conv + 7 DS + pool + fc
		t.Fatalf("KWS-L blocks = %d", len(kwsL.Blocks))
	}
	if kwsL.Blocks[0].OutC != 276 || kwsL.Blocks[1].OutC != 248 || kwsL.Blocks[1].Stride != 2 {
		t.Fatal("KWS-L head mismatch with Table 5")
	}
	adS := MicroNetADS()
	if len(adS.Blocks) != 7 { // conv + 4 DS + pool + fc
		t.Fatalf("AD-S blocks = %d", len(adS.Blocks))
	}
	if adS.Blocks[0].OutC != 72 || adS.Blocks[4].OutC != 276 {
		t.Fatal("AD-S widths mismatch with Table 5")
	}
}

func TestTasksAndClassCounts(t *testing.T) {
	for _, e := range Catalog() {
		if e.Spec == nil {
			continue
		}
		switch e.Task {
		case "kws":
			if e.Spec.NumClasses != 12 {
				t.Errorf("%s: KWS must have 12 classes", e.Name)
			}
			if e.Spec.InputH != 49 || e.Spec.InputW != 10 {
				t.Errorf("%s: KWS input must be 49x10 MFCC", e.Name)
			}
		case "ad":
			if e.Spec.NumClasses != 0 && e.Spec.NumClasses != 4 {
				t.Errorf("%s: AD classifier must have 4 machine IDs", e.Name)
			}
		case "vww":
			if e.Spec.NumClasses != 2 {
				t.Errorf("%s: VWW must be binary", e.Name)
			}
		}
	}
}

func TestConvAENotDeployable(t *testing.T) {
	a, err := ConvAutoencoder().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.Deployable {
		t.Fatal("Conv-AE must be non-deployable (Table 3 'ND')")
	}
}

func TestMCUNetPointsOrdered(t *testing.T) {
	pts := MCUNetKWS()
	if len(pts) < 3 {
		t.Fatal("need several MCUNet comparison points")
	}
	for i := 1; i < len(pts); i++ {
		if pts[i].Accuracy <= pts[i-1].Accuracy || pts[i].LatencyMS <= pts[i-1].LatencyMS {
			t.Fatal("MCUNet points must trade accuracy for latency monotonically")
		}
	}
}

func TestMicroNetSizeOrdering(t *testing.T) {
	// Within each family: S < M < L in both ops and params.
	families := [][]string{
		{"MicroNet-KWS-S", "MicroNet-KWS-M", "MicroNet-KWS-L"},
		{"MicroNet-AD-S", "MicroNet-AD-M", "MicroNet-AD-L"},
		{"DSCNN-S", "DSCNN-M", "DSCNN-L"},
	}
	for _, fam := range families {
		var prevOps int64 = -1
		for _, name := range fam {
			e, err := Get(name)
			if err != nil {
				t.Fatal(err)
			}
			a, err := e.Spec.Analyze()
			if err != nil {
				t.Fatal(err)
			}
			if a.TotalOps() <= prevOps {
				t.Errorf("%s not larger than predecessor", name)
			}
			prevOps = a.TotalOps()
		}
	}
}

// TestServableNames: the serving registry's preload set must include the
// deployable reproductions and exclude stats-only entries and the
// transposed-conv Conv-AE (Table 3 "ND").
func TestServableNames(t *testing.T) {
	names := ServableNames()
	servable := make(map[string]bool, len(names))
	for _, n := range names {
		servable[n] = true
	}
	for _, want := range []string{"MicroNet-KWS-S", "MicroNet-VWW-2", "DSCNN-S", "FC-AE(Baseline)"} {
		if !servable[want] {
			t.Fatalf("%s missing from ServableNames %v", want, names)
		}
	}
	for _, reject := range []string{"Conv-AE", "ProxylessNas", "MSNet"} {
		if servable[reject] {
			t.Fatalf("%s must not be servable", reject)
		}
	}
}
