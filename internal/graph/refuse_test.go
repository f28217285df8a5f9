package graph_test

import (
	"math/rand"
	"testing"

	"micronets/internal/arch"
	"micronets/internal/graph"
	"micronets/internal/serve"
)

// TestLoweringRefusesWhatAnalyzeRefuses: a block after a Dense layer does
// not analyze, so it must not lower either, and both lowering front ends
// report Analyze's own error.
func TestLoweringRefusesWhatAnalyzeRefuses(t *testing.T) {
	for _, tc := range []struct {
		name  string
		block arch.Block
	}{
		{"conv", arch.Block{Kind: arch.Conv, KH: 1, KW: 1, OutC: 4}},
		{"dsblock", arch.Block{Kind: arch.DSBlock, KH: 1, KW: 1, OutC: 4}},
		{"pool", arch.Block{Kind: arch.AvgPool, KH: 1, KW: 1}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			spec := &arch.Spec{
				Name: "after-dense-" + tc.name, Task: "kws",
				InputH: 4, InputW: 4, InputC: 1, NumClasses: 4,
				Blocks: []arch.Block{{Kind: arch.Dense, OutC: 8}, tc.block},
			}
			_, want := spec.Analyze()
			if want == nil {
				t.Fatal("Analyze accepts a block after Dense")
			}
			if _, err := graph.FromSpec(spec, rand.New(rand.NewSource(1)), graph.LowerOptions{}); err == nil || err.Error() != want.Error() {
				t.Errorf("FromSpec error %v, want Analyze's %v", err, want)
			}
			if _, err := (serve.ModelOptions{AppendSoftmax: true}).Lower(spec); err == nil || err.Error() != want.Error() {
				t.Errorf("ModelOptions.Lower error %v, want Analyze's %v", err, want)
			}
		})
	}
}
