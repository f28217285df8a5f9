package main

import (
	"testing"

	"micronets/internal/arch"
)

// TestKWSSpecMatchesHandWritten pins the KWS model cmd/train builds from
// the KWS search space to the hand-written block list it replaced, block
// for block, at the default width.
func TestKWSSpecMatchesHandWritten(t *testing.T) {
	const w = 16
	want := &arch.Spec{
		Name: "train-kws", Task: "kws", InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: w, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: w + w/2, Stride: 2},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: w + w/2, Stride: 1},
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
	got, err := specFor("kws", w)
	if err != nil {
		t.Fatal(err)
	}
	if got.Fingerprint() != want.Fingerprint() {
		t.Fatalf("kws spec\n got  %s\n want %s", got.Fingerprint(), want.Fingerprint())
	}
}

// TestSpecsAnalyze checks every task's demo model is geometrically valid
// at a few widths, and that an unknown task is refused.
func TestSpecsAnalyze(t *testing.T) {
	for _, task := range []string{"kws", "vww", "ad"} {
		for _, w := range []int{8, 16, 32} {
			spec, err := specFor(task, w)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := spec.Analyze(); err != nil {
				t.Fatalf("%s at width %d: %v", task, w, err)
			}
		}
	}
	if _, err := specFor("nope", 16); err == nil {
		t.Fatal("unknown task must error")
	}
}
