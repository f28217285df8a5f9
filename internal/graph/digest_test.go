package graph_test

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"micronets/internal/arch"
	ag "micronets/internal/autograd"
	"micronets/internal/core"
	"micronets/internal/graph"
	"micronets/internal/tensor"
	"micronets/internal/zoo"
)

// digestFile holds one "<sha256 of graph.Save> <case>" line per lowering
// the digest test pins, in the format sha256sum prints.
var digestFile = filepath.Join("testdata", "lowering_digests.txt")

type loweringCase struct {
	name  string
	lower func() (*graph.Model, error)
}

// loweringCases lists every lowering the digest test pins: each servable
// zoo spec at three datatypes, random KWS and image search-space specs
// (IBNs with and without a residual), random single layers, and trained
// exports at 8 and 4 bits.
func loweringCases(t *testing.T) []loweringCase {
	var cases []loweringCase
	fromSpec := func(name string, spec *arch.Spec, seed int64, opts graph.LowerOptions) {
		cases = append(cases, loweringCase{name, func() (*graph.Model, error) {
			return graph.FromSpec(spec, rand.New(rand.NewSource(seed)), opts)
		}})
	}
	for _, name := range zoo.ServableNames() {
		e, err := zoo.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		for _, bits := range [][2]int{{8, 8}, {8, 4}, {4, 4}} {
			fromSpec(fmt.Sprintf("zoo/%s/w%da%d", name, bits[0], bits[1]), e.Spec, 1,
				graph.LowerOptions{WeightBits: bits[0], ActBits: bits[1], AppendSoftmax: true})
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 32; i++ {
		fromSpec(fmt.Sprintf("random-kws/%d", i), core.RandomKWSModel(rng, i), int64(i), graph.LowerOptions{})
	}
	for i := 0; i < 32; i++ {
		fromSpec(fmt.Sprintf("random-image/%d", i), core.RandomImageModel(rng, i), int64(i), graph.LowerOptions{})
	}
	for _, kind := range []string{"conv", "dwconv", "fc"} {
		for i := 0; i < 8; i++ {
			fromSpec(fmt.Sprintf("single-%s/%d", kind, i), core.RandomSingleLayer(rng, kind, i).Spec, int64(i), graph.LowerOptions{})
		}
	}
	for _, opts := range []graph.LowerOptions{{}, {WeightBits: 4, ActBits: 4, AppendSoftmax: true}} {
		for _, spec := range []*arch.Spec{exportSpec(), exportSpecWide()} {
			cases = append(cases, loweringCase{
				fmt.Sprintf("export/%s/w%da%d", spec.Name, opts.WeightBits, opts.ActBits),
				func() (*graph.Model, error) { return exportTrained(spec, opts) },
			})
		}
	}
	return cases
}

// exportSpec is the tiny model TestExportedModelMatchesFloat trains.
func exportSpec() *arch.Spec {
	return &arch.Spec{
		Name: "export-test", Task: "kws",
		InputH: 12, InputW: 8, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 1},
			{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: 12, Stride: 2},
			{Kind: arch.IBN, KH: 3, KW: 3, Expand: 16, OutC: 12, Stride: 1},
			{Kind: arch.GlobalPool},
			{Kind: arch.Dense, OutC: 4},
		},
	}
}

// exportSpecWide covers the block kinds exportSpec leaves out: an IBN
// without a residual, both VALID pools, dropout and a ReLU dense layer.
func exportSpecWide() *arch.Spec {
	return &arch.Spec{
		Name: "export-wide", Task: "kws",
		InputH: 12, InputW: 8, InputC: 2, NumClasses: 3,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2},
			{Kind: arch.IBN, Expand: 12, OutC: 10, Stride: 1},
			{Kind: arch.MaxPool, KH: 2, KW: 2, Stride: 1},
			{Kind: arch.AvgPool, KH: 2, KW: 2, Stride: 2},
			{Kind: arch.Dropout, Rate: 0.1},
			{Kind: arch.DenseReLU, OutC: 6},
			{Kind: arch.Dense, OutC: 3},
		},
	}
}

// exportTrained builds spec as TestExportedModelMatchesFloat does, moves
// its BatchNorm statistics with five training batches, and exports it.
func exportTrained(spec *arch.Spec, opts graph.LowerOptions) (*graph.Model, error) {
	rng := rand.New(rand.NewSource(7))
	model, err := arch.Build(rng, spec, arch.BuildOptions{})
	if err != nil {
		return nil, err
	}
	for i := 0; i < 5; i++ {
		model.Forward(ag.Constant(tensor.Randn(rng, 1, 8, spec.InputH, spec.InputW, spec.InputC)), true)
	}
	calib := tensor.Randn(rng, 1, 16, spec.InputH, spec.InputW, spec.InputC)
	return graph.Export(spec, model, calib, opts)
}

func saveDigest(m *graph.Model) (string, error) {
	var buf bytes.Buffer
	if err := graph.Save(&buf, m); err != nil {
		return "", err
	}
	sum := sha256.Sum256(buf.Bytes())
	return hex.EncodeToString(sum[:]), nil
}

// TestLoweringDigests pins the serialized bytes of every case in
// loweringCases: a change to FromSpec or Export that moves one byte of
// one model fails here.
func TestLoweringDigests(t *testing.T) {
	f, err := os.Open(digestFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		sum, name, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", digestFile, sc.Text())
		}
		want[name] = sum
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	cases := loweringCases(t)
	if len(cases) != len(want) {
		t.Errorf("%d lowering cases, %s pins %d", len(cases), digestFile, len(want))
	}
	for _, c := range cases {
		m, err := c.lower()
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		got, err := saveDigest(m)
		if err != nil {
			t.Errorf("%s: %v", c.name, err)
			continue
		}
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: not pinned in %s", c.name, digestFile)
		} else if got != w {
			t.Errorf("%s: graph.Save digest %s, want %s", c.name, got, w)
		}
	}
}
