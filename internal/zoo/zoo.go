package zoo

import (
	"fmt"
	"sort"

	"micronets/internal/arch"
)

// PaperStats records the numbers published in Table 4 (and Tables 2/3) for
// side-by-side comparison with our measurements. Zero means "not reported".
type PaperStats struct {
	// Accuracy is test accuracy (%) for KWS/VWW or AUC (%) for AD.
	Accuracy float64
	MOps     float64
	BinaryKB float64
	FlashKB  float64
	SRAMKB   float64
	// Latencies in seconds on the small/medium/large MCU.
	LatS, LatM, LatL float64
	// Energies per inference in mJ on the small/medium MCU.
	EnergySmJ, EnergyMmJ float64
}

// Entry pairs an architecture spec with the paper's published numbers.
// Spec is nil for stats-only comparison points.
type Entry struct {
	Name  string
	Task  string
	Spec  *arch.Spec
	Paper PaperStats
	// Notes documents reconstruction caveats.
	Notes string
}

// ds builds a DSBlock.
func ds(c, s int) arch.Block {
	return arch.Block{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: c, Stride: s}
}

// ibn builds an inverted bottleneck block.
func ibn(expand, c, s int) arch.Block {
	return arch.Block{Kind: arch.IBN, KH: 3, KW: 3, Expand: expand, OutC: c, Stride: s}
}

// MicroNetKWSL is MicroNet-KWS-L exactly as listed in Table 5.
func MicroNetKWSL() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-KWS-L", Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 276, Stride: 1},
			ds(248, 2), ds(276, 1), ds(276, 1), ds(248, 1), ds(248, 1), ds(248, 1), ds(248, 1),
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

// MicroNetKWSM is MicroNet-KWS-M exactly as listed in Table 5.
func MicroNetKWSM() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-KWS-M", Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 140, Stride: 1},
			ds(140, 2), ds(140, 1), ds(140, 1), ds(112, 1), ds(196, 1),
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

// MicroNetKWSS is MicroNet-KWS-S exactly as listed in Table 5.
func MicroNetKWSS() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-KWS-S", Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 10, KW: 4, OutC: 84, Stride: 1},
			ds(112, 2), ds(84, 1), ds(84, 1), ds(84, 1), ds(196, 1),
			{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
			{Kind: arch.Dense, OutC: 12},
		},
	}
}

// MicroNetADL is MicroNet-AD-L exactly as listed in Table 5.
func MicroNetADL() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-AD-L", Task: "ad", Source: "repro",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 276, Stride: 1},
			ds(248, 2), ds(276, 1), ds(276, 1), ds(248, 2), ds(248, 2),
			{Kind: arch.AvgPool, KH: 4, KW: 4, Stride: 1},
			{Kind: arch.Dense, OutC: 4},
		},
	}
}

// MicroNetADM is MicroNet-AD-M exactly as listed in Table 5.
func MicroNetADM() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-AD-M", Task: "ad", Source: "repro",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 192, Stride: 1},
			ds(276, 2), ds(276, 1), ds(276, 1), ds(276, 2), ds(276, 2),
			{Kind: arch.AvgPool, KH: 4, KW: 4, Stride: 1},
			{Kind: arch.Dense, OutC: 4},
		},
	}
}

// MicroNetADS is MicroNet-AD-S exactly as listed in Table 5.
func MicroNetADS() *arch.Spec {
	return &arch.Spec{
		Name: "MicroNet-AD-S", Task: "ad", Source: "repro",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 4,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 72, Stride: 1},
			ds(164, 2), ds(220, 1), ds(276, 2), ds(276, 2),
			{Kind: arch.AvgPool, KH: 4, KW: 4, Stride: 1},
			{Kind: arch.Dense, OutC: 4},
		},
	}
}

// DSCNN builds the Hello Edge DS-CNN baselines (S/M/L) used in Figure 7.
func DSCNN(size string) *arch.Spec {
	var c, blocks int
	switch size {
	case "S":
		c, blocks = 64, 4
	case "M":
		c, blocks = 172, 4
	case "L":
		c, blocks = 276, 5
	default:
		panic(fmt.Sprintf("zoo: unknown DSCNN size %q", size))
	}
	bl := []arch.Block{{Kind: arch.Conv, KH: 10, KW: 4, OutC: c, Stride: 2}}
	for i := 0; i < blocks; i++ {
		bl = append(bl, ds(c, 1))
	}
	bl = append(bl,
		arch.Block{Kind: arch.AvgPool, KH: 25, KW: 5, Stride: 1},
		arch.Block{Kind: arch.Dense, OutC: 12},
	)
	return &arch.Spec{
		Name: "DSCNN-" + size, Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: bl,
	}
}

// MBNetV2KWS builds the MobileNetV2-IBN-stack KWS baselines of Figure 7.
func MBNetV2KWS(size string) *arch.Spec {
	var c int
	var n int
	switch size {
	case "S":
		c, n = 48, 4
	case "M":
		c, n = 96, 4
	case "L":
		c, n = 192, 5
	default:
		panic(fmt.Sprintf("zoo: unknown MBNetV2 size %q", size))
	}
	bl := []arch.Block{{Kind: arch.Conv, KH: 3, KW: 3, OutC: c, Stride: 2}}
	for i := 0; i < n; i++ {
		bl = append(bl, ibn(c*3, c, 1))
	}
	bl = append(bl,
		arch.Block{Kind: arch.GlobalPool},
		arch.Block{Kind: arch.Dense, OutC: 12},
	)
	return &arch.Spec{
		Name: "MBNETV2-" + size, Task: "kws", Source: "repro",
		InputH: 49, InputW: 10, InputC: 1, NumClasses: 12,
		Blocks: bl,
	}
}

// FCAutoencoder builds the fully connected autoencoder AD baselines
// (Purohit et al.): 640-d input, four hidden layers of width `hidden`, an
// 8-d bottleneck, four more hidden layers, and the 640-d reconstruction.
func FCAutoencoder(name string, hidden int) *arch.Spec {
	bl := []arch.Block{}
	for i := 0; i < 4; i++ {
		bl = append(bl, arch.Block{Kind: arch.DenseReLU, OutC: hidden})
	}
	bl = append(bl, arch.Block{Kind: arch.DenseReLU, OutC: 8})
	for i := 0; i < 4; i++ {
		bl = append(bl, arch.Block{Kind: arch.DenseReLU, OutC: hidden})
	}
	bl = append(bl, arch.Block{Kind: arch.Dense, OutC: 640})
	return &arch.Spec{
		Name: name, Task: "ad", Source: "repro",
		InputH: 1, InputW: 1, InputC: 640, NumClasses: 0,
		Blocks: bl,
	}
}

// ConvAutoencoder reconstructs the Conv-AE baseline (Ribeiro et al. 2020).
// Its decoder uses transposed convolutions, which TFLM does not support, so
// the deployability checker must reject it — reproducing the "ND" entry in
// Table 3.
func ConvAutoencoder() *arch.Spec {
	return &arch.Spec{
		Name: "Conv-AE", Task: "ad", Source: "paper",
		InputH: 32, InputW: 32, InputC: 1, NumClasses: 0,
		Blocks: []arch.Block{
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 152, Stride: 2},
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 304, Stride: 2},
			{Kind: arch.Conv, KH: 3, KW: 3, OutC: 608, Stride: 2},
			{Kind: arch.TransposedConv, KH: 3, KW: 3, OutC: 304, Stride: 2},
			{Kind: arch.TransposedConv, KH: 3, KW: 3, OutC: 152, Stride: 2},
			{Kind: arch.TransposedConv, KH: 3, KW: 3, OutC: 1, Stride: 2},
		},
	}
}

// MBNetV20p5AD reconstructs the MobileNetV2-0.5 anomaly-detection model
// from the DCASE2020 winning solution (Giri et al. 2020) on 64x64
// spectrogram inputs.
func MBNetV20p5AD() *arch.Spec {
	bl := []arch.Block{{Kind: arch.Conv, KH: 3, KW: 3, OutC: 20, Stride: 2}}
	// MobileNetV2 stage table at width ~0.5 (scaled slightly up and given
	// the 1x1 head so the reconstruction matches the published flash size).
	type stage struct{ t, c, n, s int }
	stages := []stage{
		{1, 10, 1, 1}, {6, 15, 2, 2}, {6, 20, 3, 2}, {6, 40, 4, 2},
		{6, 60, 3, 1}, {6, 100, 3, 2}, {6, 200, 1, 1},
	}
	c := 20
	for _, st := range stages {
		for i := 0; i < st.n; i++ {
			s := 1
			if i == 0 {
				s = st.s
			}
			bl = append(bl, ibn(c*st.t, st.c, s))
			c = st.c
		}
	}
	bl = append(bl,
		arch.Block{Kind: arch.Conv, KH: 1, KW: 1, OutC: 800, Stride: 1},
		arch.Block{Kind: arch.GlobalPool},
		arch.Block{Kind: arch.Dense, OutC: 4},
	)
	return &arch.Spec{
		Name: "MBNETV2-0.5AD", Task: "ad", Source: "paper",
		InputH: 64, InputW: 64, InputC: 1, NumClasses: 4,
		Blocks: bl,
	}
}

// PersonDetection reconstructs the TFLM example model (MobileNetV1 0.25 on
// 96x96x1 grayscale), the VWW reference the paper compares against.
func PersonDetection() *arch.Spec {
	widths := []int{16, 32, 32, 64, 64, 128, 128, 128, 128, 128, 128, 256, 256}
	strides := []int{1, 2, 1, 2, 1, 2, 1, 1, 1, 1, 1, 2, 1}
	bl := []arch.Block{{Kind: arch.Conv, KH: 3, KW: 3, OutC: 8, Stride: 2}}
	for i := range widths {
		bl = append(bl, arch.Block{Kind: arch.DSBlock, KH: 3, KW: 3, OutC: widths[i], Stride: strides[i]})
	}
	bl = append(bl,
		arch.Block{Kind: arch.GlobalPool},
		arch.Block{Kind: arch.Dense, OutC: 2},
	)
	return &arch.Spec{
		Name: "Person Detection", Task: "vww", Source: "paper",
		InputH: 96, InputW: 96, InputC: 1, NumClasses: 2,
		Blocks: bl,
	}
}

// Catalog returns the paper's fixed model set, keyed by name.
func Catalog() map[string]*Entry {
	entries := []*Entry{
		{Name: "MicroNet-KWS-L", Task: "kws", Spec: MicroNetKWSL(),
			Paper: PaperStats{Accuracy: 96.5, MOps: 129, BinaryKB: 701, FlashKB: 612, SRAMKB: 208.8, LatM: 0.610, LatL: 0.596, EnergyMmJ: 274.32}},
		{Name: "MicroNet-KWS-M", Task: "kws", Spec: MicroNetKWSM(),
			Paper: PaperStats{Accuracy: 95.8, MOps: 30.6, BinaryKB: 252, FlashKB: 163, SRAMKB: 103.3, LatS: 0.426, LatM: 0.187, LatL: 0.181, EnergySmJ: 70.56, EnergyMmJ: 83.16}},
		{Name: "MicroNet-KWS-S", Task: "kws", Spec: MicroNetKWSS(),
			Paper: PaperStats{Accuracy: 95.3, MOps: 16.4, BinaryKB: 191, FlashKB: 102, SRAMKB: 53.2, LatS: 0.250, LatM: 0.109, LatL: 0.108, EnergySmJ: 40.68, EnergyMmJ: 48.6}},
		{Name: "MicroNet-AD-L", Task: "ad", Spec: MicroNetADL(),
			Paper: PaperStats{Accuracy: 97.28, MOps: 129, BinaryKB: 530, FlashKB: 442, SRAMKB: 383.7, LatL: 0.614}},
		{Name: "MicroNet-AD-M", Task: "ad", Spec: MicroNetADM(),
			Paper: PaperStats{Accuracy: 96.05, MOps: 124.7, BinaryKB: 562, FlashKB: 464, SRAMKB: 274.5, LatM: 0.608, LatL: 0.567, EnergyMmJ: 269.64}},
		{Name: "MicroNet-AD-S", Task: "ad", Spec: MicroNetADS(),
			Paper: PaperStats{Accuracy: 95.35, MOps: 37.5, BinaryKB: 351, FlashKB: 253, SRAMKB: 114.2, LatS: 0.457, LatM: 0.192, LatL: 0.194, EnergySmJ: 74.16, EnergyMmJ: 91.8}},
		{Name: "DSCNN-L", Task: "kws", Spec: DSCNN("L"),
			Paper: PaperStats{Accuracy: 95.9, MOps: 107.2, BinaryKB: 579, FlashKB: 490, SRAMKB: 201.3, LatM: 0.515, LatL: 0.497, EnergyMmJ: 229.32}},
		{Name: "DSCNN-M", Task: "kws", Spec: DSCNN("M"),
			Paper: PaperStats{Accuracy: 95.0, MOps: 37.3, BinaryKB: 270, FlashKB: 181, SRAMKB: 123.3, LatM: 0.219, LatL: 0.212, EnergyMmJ: 98.64}},
		{Name: "DSCNN-S", Task: "kws", Spec: DSCNN("S"),
			Paper: PaperStats{Accuracy: 94.15, MOps: 7.1, BinaryKB: 138, FlashKB: 49, SRAMKB: 47.2, LatS: 0.131, LatM: 0.058, LatL: 0.058, EnergySmJ: 21.132, EnergyMmJ: 25.956}},
		{Name: "MBNETV2-L", Task: "kws", Spec: MBNetV2KWS("L"),
			Paper: PaperStats{Accuracy: 95.5, MOps: 276.8, FlashKB: 988, SRAMKB: 530}},
		{Name: "MBNETV2-M", Task: "kws", Spec: MBNetV2KWS("M"),
			Paper: PaperStats{Accuracy: 94.9, MOps: 59.26, BinaryKB: 331, FlashKB: 233, SRAMKB: 266, LatM: 0.330, LatL: 0.317, EnergyMmJ: 147.6}},
		{Name: "MBNETV2-S", Task: "kws", Spec: MBNetV2KWS("S"),
			Paper: PaperStats{Accuracy: 94.0, MOps: 16.1, BinaryKB: 185, FlashKB: 87, SRAMKB: 134.2, LatM: 0.120, LatL: 0.115, EnergyMmJ: 15.264}},
		{Name: "MicroNet-VWW-1", Task: "vww", Spec: MicroNetVWW(1),
			Paper: PaperStats{Accuracy: 88.03, MOps: 135.9, BinaryKB: 949, FlashKB: 833, SRAMKB: 285.3, LatM: 1.133, LatL: 1.055, EnergyMmJ: 478.8}},
		{Name: "MicroNet-VWW-2", Task: "vww", Spec: MicroNetVWW(2),
			Paper: PaperStats{Accuracy: 78.1, MOps: 5.3, BinaryKB: 331, FlashKB: 230, SRAMKB: 69.5, LatS: 0.181, LatM: 0.079, LatL: 0.082, EnergySmJ: 27.25, EnergyMmJ: 36.36}},
		{Name: "MicroNet-VWW-3", Task: "vww", Spec: MicroNetVWW(3),
			Paper: PaperStats{Accuracy: 86.44, MOps: 45.2, BinaryKB: 564, FlashKB: 458, SRAMKB: 133.7, LatM: 0.467, LatL: 0.447, EnergyMmJ: 196.2}},
		{Name: "MicroNet-VWW-4", Task: "vww", Spec: MicroNetVWW(4),
			Paper: PaperStats{Accuracy: 82.49, MOps: 37.7, BinaryKB: 521, FlashKB: 416, SRAMKB: 118.7, LatS: 0.726, LatM: 0.31, LatL: 0.298, EnergyMmJ: 133.2}},
		{Name: "FC-AE(Baseline)", Task: "ad", Spec: FCAutoencoder("FC-AE(Baseline)", 128),
			Paper: PaperStats{Accuracy: 84.76, MOps: 0.52, BinaryKB: 346, FlashKB: 270, SRAMKB: 4.7, LatS: 0.007, LatM: 0.003, LatL: 0.003, EnergySmJ: 1.1736, EnergyMmJ: 1.26}},
		{Name: "FC-AE(Wide)", Task: "ad", Spec: FCAutoencoder("FC-AE(Wide)", 512),
			Paper: PaperStats{Accuracy: 87.1, MOps: 4.47, FlashKB: 2252.8, SRAMKB: 4.7}},
		{Name: "Conv-AE", Task: "ad", Spec: ConvAutoencoder(),
			Paper: PaperStats{Accuracy: 91.77, MOps: 578, FlashKB: 4198.4, SRAMKB: 160},
			Notes: "decoder uses transposed convolutions; not deployable on TFLM (Table 3 'ND')"},
		{Name: "MBNETV2-0.5AD", Task: "ad", Spec: MBNetV20p5AD(),
			Paper: PaperStats{Accuracy: 97.24, MOps: 31.1, BinaryKB: 1050, FlashKB: 965, SRAMKB: 206.8, LatL: 0.253},
			Notes: "DCASE2020 component model (Giri et al.); accuracy estimated from ensembles"},
		{Name: "Person Detection", Task: "vww", Spec: PersonDetection(),
			Paper: PaperStats{Accuracy: 76, MOps: 0, BinaryKB: 398, FlashKB: 294, SRAMKB: 82.3, LatS: 0.254, LatM: 0.108, LatL: 0.108, EnergySmJ: 39.96, EnergyMmJ: 49.32}},
		// Stats-only comparison points: architectures are not public.
		{Name: "ProxylessNas", Task: "vww", Spec: nil,
			Paper: PaperStats{Accuracy: 94.6, BinaryKB: 413, FlashKB: 309, SRAMKB: 349.8, LatM: 7.72, LatL: 7.543},
			Notes: "stats-only; fits small-MCU flash but needs large-MCU SRAM (§6.2)"},
		{Name: "MSNet", Task: "vww", Spec: nil,
			Paper: PaperStats{Accuracy: 95.13, BinaryKB: 362, FlashKB: 264, SRAMKB: 413, LatM: 8.69, LatL: 8.499},
			Notes: "stats-only"},
	}
	m := make(map[string]*Entry, len(entries))
	for _, e := range entries {
		m[e.Name] = e
	}
	return m
}

// Names returns all catalogue names in sorted order.
func Names() []string {
	cat := Catalog()
	names := make([]string, 0, len(cat))
	for n := range cat {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// ServableNames returns the catalogue entries the int8 runtime can
// actually execute: a public architecture (Spec != nil) that Analyze
// finds deployable. This is the model set a serving registry may preload;
// stats-only comparison points and Conv-AE (Table 3 "ND") are excluded.
func ServableNames() []string {
	cat := Catalog()
	var out []string
	for _, n := range Names() {
		if e := cat[n]; e.Spec != nil {
			if a, err := e.Spec.Analyze(); err == nil && a.Deployable {
				out = append(out, n)
			}
		}
	}
	return out
}

// Get returns the entry for a name, or an error listing alternatives.
func Get(name string) (*Entry, error) {
	cat := Catalog()
	if e, ok := cat[name]; ok {
		return e, nil
	}
	return nil, fmt.Errorf("zoo: unknown model %q (have %v)", name, Names())
}

// Spec returns the architecture of a named model: an error for a name
// the catalogue lacks (see Get) and for a stats-only comparison point,
// which has no public architecture to lower.
func Spec(name string) (*arch.Spec, error) {
	e, err := Get(name)
	if err != nil {
		return nil, err
	}
	if e.Spec == nil {
		return nil, fmt.Errorf("zoo: %s is a stats-only comparison point (no public architecture)", name)
	}
	return e.Spec, nil
}

// ByTask returns entries for one task, sorted by name.
func ByTask(task string) []*Entry {
	cat := Catalog()
	var out []*Entry
	for _, n := range Names() {
		if cat[n].Task == task {
			out = append(out, cat[n])
		}
	}
	return out
}

// MCUNetKWSPoints returns the MCUNet comparison points for Figure 11,
// estimated from the figures published in Lin et al. 2020 (as the paper
// itself did: "our best estimates from figures published in...").
type ComparisonPoint struct {
	Name      string
	Accuracy  float64
	LatencyMS float64
	SRAMKB    float64
}

// MCUNetKWS returns estimated MCUNet KWS pareto points (Figure 11).
func MCUNetKWS() []ComparisonPoint {
	return []ComparisonPoint{
		{Name: "MCUNet-KWS-A", Accuracy: 91.5, LatencyMS: 210, SRAMKB: 130},
		{Name: "MCUNet-KWS-B", Accuracy: 93.2, LatencyMS: 360, SRAMKB: 190},
		{Name: "MCUNet-KWS-C", Accuracy: 94.4, LatencyMS: 590, SRAMKB: 250},
		{Name: "MCUNet-KWS-D", Accuracy: 95.2, LatencyMS: 880, SRAMKB: 365},
	}
}
