package arch

import (
	"math/rand"
	"reflect"
	"strings"
	"testing"

	ag "micronets/internal/autograd"
	"micronets/internal/nn"
	"micronets/internal/tensor"
)

func kwsM() *Spec {
	return &Spec{
		Name: "kws-m", Task: "kws",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []Block{
			{Kind: Conv, KH: 10, KW: 4, OutC: 140, Stride: 1},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 140, Stride: 2},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 140, Stride: 1},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 140, Stride: 1},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 112, Stride: 1},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 196, Stride: 1},
			{Kind: AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: Dense, OutC: 12},
		},
	}
}

// TestAnalyzeMatchesPaperOps validates the op-counting convention against
// Table 4: MicroNet-KWS-M is reported at 30.6 Mops.
func TestAnalyzeMatchesPaperOps(t *testing.T) {
	a, err := kwsM().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	mops := float64(a.TotalOps()) / 1e6
	if mops < 29 || mops > 33 {
		t.Fatalf("KWS-M ops = %.1f Mops, paper says 30.6", mops)
	}
	// And the parameter count should serialize near the paper's 163 KB
	// model (weights alone ~110 KB).
	if a.TotalParams < 100_000 || a.TotalParams > 130_000 {
		t.Fatalf("KWS-M params = %d", a.TotalParams)
	}
}

func TestAnalyzeShapes(t *testing.T) {
	a, err := kwsM().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	first := a.Layers[0]
	if first.OutH != 49 || first.OutW != 10 || first.OutC != 140 {
		t.Fatalf("first conv out %dx%dx%d", first.OutH, first.OutW, first.OutC)
	}
	// After the stride-2 block: 25x5.
	dw := a.Layers[1]
	if dw.OutH != 25 || dw.OutW != 5 {
		t.Fatalf("stride-2 dw out %dx%d", dw.OutH, dw.OutW)
	}
	last := a.Layers[len(a.Layers)-1]
	if last.Kind != "dense" || last.OutC != 12 {
		t.Fatalf("last layer %+v", last)
	}
}

func TestAnalyzeIBNResidualAdd(t *testing.T) {
	s := &Spec{
		Name: "ibn", Task: "vww", InputH: 8, InputW: 8, InputC: 1, NumClasses: 2,
		Blocks: []Block{
			{Kind: Conv, KH: 3, KW: 3, OutC: 8, Stride: 1},
			{Kind: IBN, Expand: 16, OutC: 8, Stride: 1},
			{Kind: IBN, Expand: 16, OutC: 12, Stride: 2},
		},
	}
	a, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	adds := 0
	for _, l := range a.Layers {
		if l.Kind == "add" {
			adds++
		}
	}
	if adds != 1 {
		t.Fatalf("adds = %d, want 1 (only the stride-1 same-width IBN)", adds)
	}
}

func TestAnalyzeRejectsBadSpecs(t *testing.T) {
	bad := &Spec{Name: "bad", InputH: 0, InputW: 4, InputC: 1}
	if _, err := bad.Analyze(); err == nil {
		t.Fatal("zero input dim must error")
	}
	convAfterDense := &Spec{
		Name: "bad2", InputH: 4, InputW: 4, InputC: 1,
		Blocks: []Block{
			{Kind: Dense, OutC: 4},
			{Kind: Conv, KH: 3, KW: 3, OutC: 4},
		},
	}
	if _, err := convAfterDense.Analyze(); err == nil {
		t.Fatal("conv after flatten must error")
	}
	noExpand := &Spec{
		Name: "bad3", InputH: 4, InputW: 4, InputC: 1,
		Blocks: []Block{{Kind: IBN, OutC: 4}},
	}
	if _, err := noExpand.Analyze(); err == nil {
		t.Fatal("IBN without Expand must error")
	}
}

// TestAnalyzeRejectsNonPositiveSizes: Analyze is the validator in front of
// zoo registration, spec files and the admin inline load, so a size the
// lowering cannot build must fail here, not panic in graph.FromSpec or
// tflm.Prepare.
//
// Sizes are bounded above too: no dimension past maxDim, and no total
// (parameters, MACs, peak working set) past maxTotal, however large the
// true product — the int64 products used to wrap, so a spec asking for an
// unbounded allocation analyzed clean with TotalParams 0.
func TestAnalyzeRejectsNonPositiveSizes(t *testing.T) {
	analyze := func(name string, h, w, c int, b Block, ok bool) {
		t.Helper()
		s := &Spec{Name: name, InputH: h, InputW: w, InputC: c, Blocks: []Block{b}}
		if _, err := s.Analyze(); (err == nil) != ok {
			t.Errorf("%s: Analyze error %v, want ok=%v", name, err, ok)
		}
	}
	for _, tc := range []struct {
		name  string
		block Block
		ok    bool
	}{
		{"conv negative OutC", Block{Kind: Conv, KH: 3, KW: 3, OutC: -4}, false},
		{"conv negative KH", Block{Kind: Conv, KH: -3, KW: 3, OutC: 4}, false},
		{"conv zero kernel", Block{Kind: Conv, OutC: 4}, false},
		{"conv negative stride", Block{Kind: Conv, KH: 3, KW: 3, OutC: 4, Stride: -1}, false},
		{"dsblock zero KW", Block{Kind: DSBlock, KH: 3, OutC: 4}, false},
		{"dsblock zero OutC", Block{Kind: DSBlock, KH: 3, KW: 3}, false},
		{"ibn negative KW", Block{Kind: IBN, KH: 3, KW: -1, OutC: 4, Expand: 8}, false},
		{"ibn zero OutC", Block{Kind: IBN, OutC: 0, Expand: 8}, false},
		{"avgpool zero window", Block{Kind: AvgPool, KW: 2}, false},
		{"maxpool negative window", Block{Kind: MaxPool, KH: 2, KW: -2}, false},
		{"dense zero OutC", Block{Kind: Dense}, false},
		{"dense-relu negative OutC", Block{Kind: DenseReLU, OutC: -1}, false},
		{"tconv zero OutC", Block{Kind: TransposedConv, KH: 3, KW: 3, Stride: 2}, false},
		{"ibn zero kernel means 3x3", Block{Kind: IBN, OutC: 4, Expand: 8}, true},
		{"zero stride means 1", Block{Kind: Conv, KH: 3, KW: 3, OutC: 4}, true},
		{"no layers", Block{Kind: Dropout, Rate: 0.1}, false},
		{"sizeless kinds", Block{Kind: GlobalPool}, true},
	} {
		analyze(tc.name, 8, 8, 1, tc.block, tc.ok)
	}
	for _, tc := range []struct {
		name    string
		h, w, c int
		block   Block
		ok      bool
	}{
		{"conv OutC at maxDim", 8, 8, 1, Block{Kind: Conv, KH: 1, KW: 1, OutC: maxDim}, true},
		{"conv OutC past maxDim", 8, 8, 1, Block{Kind: Conv, KH: 1, KW: 1, OutC: maxDim + 1}, false},
		{"conv KH past maxDim", 8, 8, 1, Block{Kind: Conv, KH: 1 << 20, KW: 1, OutC: 4}, false},
		{"stride past maxDim", 8, 8, 1, Block{Kind: Conv, KH: 3, KW: 3, OutC: 4, Stride: 1 << 20}, false},
		{"ibn Expand past maxDim", 8, 8, 1, Block{Kind: IBN, OutC: 4, Expand: 1 << 20}, false},
		{"input past maxDim", 8, 1 << 20, 1, Block{Kind: GlobalPool}, false},
		{"2^20 cube wraps params to 0", 1 << 20, 1 << 20, 1 << 20, Block{Kind: Conv, KH: 1 << 20, KW: 1 << 20, OutC: 1 << 20}, false},
		{"params past maxTotal", 8, 8, 1, Block{Kind: Conv, KH: 1 << 14, KW: 1 << 14, OutC: 1 << 14}, false},
		{"product past 2^64", 8, 8, maxDim, Block{Kind: Conv, KH: maxDim, KW: maxDim, OutC: maxDim}, false},
		{"dense params past maxTotal", maxDim, maxDim, 1, Block{Kind: Dense, OutC: maxDim}, false},
		{"peak working set past maxTotal", maxDim, maxDim, maxDim, Block{Kind: GlobalPool}, false},
		{"tconv output past maxDim", 8, 8, 1, Block{Kind: TransposedConv, KH: 3, KW: 3, OutC: 4, Stride: maxDim}, false},
	} {
		analyze(tc.name, tc.h, tc.w, tc.c, tc.block, tc.ok)
	}
}

func TestAnalyzeTransposedConvNotDeployable(t *testing.T) {
	s := &Spec{
		Name: "tconv", InputH: 8, InputW: 8, InputC: 1,
		Blocks: []Block{{Kind: TransposedConv, KH: 3, KW: 3, OutC: 4, Stride: 2}},
	}
	a, err := s.Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if a.Deployable {
		t.Fatal("transposed conv specs must be flagged non-deployable")
	}
}

func TestWorkingSetIsMax(t *testing.T) {
	a, err := kwsM().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	var maxWS int64
	for _, l := range a.Layers {
		if ws := l.InBytes() + l.OutBytes(); ws > maxWS {
			maxWS = ws
		}
	}
	if a.PeakWorkingSetBytes != maxWS {
		t.Fatalf("peak %d != max over layers %d", a.PeakWorkingSetBytes, maxWS)
	}
}

func TestBuildForwardMatchesAnalyzeShapes(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	spec := &Spec{
		Name: "small", Task: "kws",
		InputH: 16, InputW: 8, InputC: 1, NumClasses: 4,
		Blocks: []Block{
			{Kind: Conv, KH: 3, KW: 3, OutC: 8, Stride: 1},
			{Kind: DSBlock, KH: 3, KW: 3, OutC: 12, Stride: 2},
			{Kind: IBN, Expand: 24, OutC: 12, Stride: 1},
			{Kind: MaxPool, KH: 2, KW: 2, Stride: 2},
			{Kind: GlobalPool},
			{Kind: Dropout, Rate: 0.1},
			{Kind: Dense, OutC: 4},
		},
	}
	model, err := Build(rng, spec, false)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 2, 16, 8, 1)
	y := model.Forward(ag.Constant(x), false)
	if y.Value.Shape[0] != 2 || y.Value.Shape[1] != 4 {
		t.Fatalf("output shape %v", y.Value.Shape)
	}
}

// TestBuildSeedsDropout checks that the build rng reaches dropout: two
// builds of one spec at different seeds draw different training masks.
func TestBuildSeedsDropout(t *testing.T) {
	spec := &Spec{
		Name: "drop", Task: "kws", InputH: 4, InputW: 4, InputC: 1, NumClasses: 2,
		Blocks: []Block{
			{Kind: Conv, KH: 1, KW: 1, OutC: 4, Stride: 1},
			{Kind: GlobalPool},
			{Kind: Dropout, Rate: 0.5},
			{Kind: Dense, OutC: 2},
		},
	}
	mask := func(seed int64) []float32 {
		model, err := Build(rand.New(rand.NewSource(seed)), spec, false)
		if err != nil {
			t.Fatal(err)
		}
		ones := tensor.New(1, 64)
		for i := range ones.Data {
			ones.Data[i] = 1
		}
		return model.Layers[2].Forward(ag.Constant(ones), true).Value.Data
	}
	if a, b := mask(1), mask(2); reflect.DeepEqual(a, b) {
		t.Fatalf("seeds 1 and 2 drew the same dropout mask %v", a)
	}
}

func TestBuildQATWiresQuantizers(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	spec := &Spec{
		Name: "qat", Task: "kws", InputH: 8, InputW: 8, InputC: 1, NumClasses: 2,
		Blocks: []Block{
			{Kind: Conv, KH: 3, KW: 3, OutC: 4, Stride: 1},
			{Kind: GlobalPool},
			{Kind: Dense, OutC: 2},
		},
	}
	model, err := Build(rng, spec, true)
	if err != nil {
		t.Fatal(err)
	}
	x := tensor.Randn(rng, 1, 1, 8, 8, 1)
	model.Forward(ag.Constant(x), true) // trains observers without error
}

// TestPoolLiteralMatchesAnalyzeRow checks that a pool given only its
// window and stride trains VALID, as its Analyze row and the lowering
// size it: a 3x3 window at stride 2 maps 5x5 to 2x2.
func TestPoolLiteralMatchesAnalyzeRow(t *testing.T) {
	pools := map[BlockKind]nn.Layer{
		AvgPool: &nn.AvgPool{KH: 3, KW: 3, Stride: 2},
		MaxPool: &nn.MaxPoolLayer{KH: 3, KW: 3, Stride: 2},
	}
	for kind, pool := range pools {
		spec := &Spec{
			Name: "pool", Task: "kws", InputH: 5, InputW: 5, InputC: 2, NumClasses: 2,
			Blocks: []Block{{Kind: kind, KH: 3, KW: 3, Stride: 2}, {Kind: Dense, OutC: 2}},
		}
		a, err := spec.Analyze()
		if err != nil {
			t.Fatal(err)
		}
		row := a.Layers[0]
		x := tensor.Randn(rand.New(rand.NewSource(4)), 1, 1, 5, 5, 2)
		got := pool.Forward(ag.Constant(x), false).Value.Shape
		if want := []int{1, row.OutH, row.OutW, row.OutC}; !reflect.DeepEqual(got, want) || row.OutH != 2 || row.OutW != 2 {
			t.Fatalf("%s: literal pool gives %v, Analyze row %v (want 2x2)", row.Kind, got, want)
		}
	}
}

func TestBuildRejectsTransposedConv(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	spec := &Spec{
		Name: "tc", InputH: 8, InputW: 8, InputC: 1,
		Blocks: []Block{{Kind: TransposedConv, KH: 3, KW: 3, OutC: 4, Stride: 2}},
	}
	if _, err := Build(rng, spec, false); err == nil {
		t.Fatal("builder must reject transposed conv")
	}
}

func TestSpecStringTable5Style(t *testing.T) {
	s := kwsM().String()
	for _, frag := range []string{"Conv2D(h:10,w:4,c:140,s:1)", "AvgPool(h:25,w:5)", "FC(c:12)"} {
		if !strings.Contains(s, frag) {
			t.Fatalf("spec string missing %q: %s", frag, s)
		}
	}
}

func TestOutputDim(t *testing.T) {
	a, err := kwsM().Analyze()
	if err != nil {
		t.Fatal(err)
	}
	if last := a.Layers[len(a.Layers)-1]; last.OutH*last.OutW*last.OutC != 12 {
		t.Fatalf("last layer %dx%dx%d, want 12 class outputs", last.OutH, last.OutW, last.OutC)
	}
}
