package serve

import (
	"bytes"
	"encoding/json"
	"math"
	"math/big"
	"math/rand"
	"net/http/httptest"
	"regexp"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"testing"

	"micronets/internal/graph"
)

// decodeLayouts are the input tensors of the two served shapes the codec
// is measured on: MicroNet-VWW-1 (160×160×1, 25,600 values, a ~500 KB
// body) and MicroNet-KWS-S (49×10×1, 490 values).
var decodeLayouts = []struct {
	name   string
	layout *graph.Tensor
}{
	{"vww1-25600", &graph.Tensor{H: 160, W: 160, C: 1, Bits: 8, Scale: 0.0078, ZeroPoint: -1}},
	{"kws-s-490", &graph.Tensor{H: 49, W: 10, C: 1, Bits: 8, Scale: 0.05, ZeroPoint: 5}},
}

// fp32Body renders one FP32 row of elems values the way a client does:
// float32-rounded normals through json.Marshal.
func fp32Body(elems int) []byte {
	rng := rand.New(rand.NewSource(1))
	data := make([]float64, elems)
	for i := range data {
		data[i] = float64(float32(rng.NormFloat64()))
	}
	body, err := json.Marshal(v2InferRequest{Inputs: []v2Tensor{{Name: "input", Datatype: "FP32", Data: data}}})
	if err != nil {
		panic(err)
	}
	return body
}

// decodeAndQuantize is what the decode histogram times in handleInfer:
// body read, parse and quantize of every row, then the release.
func decodeAndQuantize(tb testing.TB, body []byte, layout *graph.Tensor) {
	rec := httptest.NewRecorder()
	req, n, ok := decodeInfer(rec, httptest.NewRequest("POST", "/v2/models/m/infer", bytes.NewReader(body)), layout, "model m")
	if !ok {
		tb.Fatalf("decode refused: %d %s", rec.Code, rec.Body)
	}
	in, elems := req.Inputs[0], layout.Elems()
	for b := range n {
		if _, err := quantizeRow(layout, in.Datatype, in.Data[b*elems:(b+1)*elems]); err != nil {
			tb.Fatal(err)
		}
	}
	req.release()
}

// BenchmarkDecodeInfer times decodeInfer plus quantizeRow on one FP32 row
// of a VWW-1- and a KWS-S-sized body (SetBytes: MB/s is body bytes).
func BenchmarkDecodeInfer(b *testing.B) {
	for _, c := range decodeLayouts {
		body := fp32Body(c.layout.Elems())
		b.Run(c.name, func(b *testing.B) {
			b.SetBytes(int64(len(body)))
			b.ReportAllocs()
			for b.Loop() {
				decodeAndQuantize(b, body, c.layout)
			}
		})
	}
}

// numberRE is the JSON number grammar scanNumber must match, longest
// match first.
var numberRE = func() *regexp.Regexp {
	re := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?`)
	re.Longest()
	return re
}()

// checkScanNumber runs scanNumber on b at i and holds it to the grammar:
// end is the longest numberRE match there, or -1 for none; see checkScan.
func checkScanNumber(t *testing.T, b []byte, i int) (exact bool) {
	want := -1
	if loc := numberRE.FindIndex(b[i:]); loc != nil {
		want = i + loc[1]
	}
	return checkScan(t, b, i, want)
}

// checkScan runs scanNumber on b at i, requires end to be want and an
// exact value to be strconv.ParseFloat's, bit for bit, and reports
// whether the exact path took the literal.
func checkScan(t *testing.T, b []byte, i, want int) (exact bool) {
	v, end, exact := scanNumber(b, i)
	if end != want {
		t.Helper()
		t.Fatalf("scanNumber(%q, %d): end %d, the grammar's longest match ends at %d", b, i, end, want)
	}
	if end < 0 || !exact {
		return false
	}
	std, err := strconv.ParseFloat(string(b[i:end]), 64)
	if err != nil || math.Float64bits(v) != math.Float64bits(std) {
		t.Helper()
		t.Fatalf("scanNumber(%q) = %v (%#x) on the exact path; strconv.ParseFloat gives %v (%#x), %v",
			b[i:end], v, math.Float64bits(v), std, math.Float64bits(std), err)
	}
	return true
}

// scanNumberEdges are the literals a float reader most often gets wrong:
// the edges of the exact path (19 and 20 digits, exponents ±19, ±27, ±28),
// zeros, ties and the float64 range ends, plus what the grammar must
// refuse or cut short.
var scanNumberEdges = []string{
	"0", "-0", "-0.0", "0.00000000000000000000000000000000000000", "0e99999999999", "-0E-7",
	"1e19", "1e-19", "1e20", "1e-20", "1e27", "1e28", "1e-27", "1e-28", "1e99999999999", "1e-99999999999",
	"5e-324", "1e-400", "1e400", "-1e400", "1.7976931348623157e308", "2.2250738585072014e-308",
	"18446744073709551615", "18446744073709551616", "9999999999999999999", "99999999999999999999",
	"1234567890123456789", "12345678901234567890", "1234567890123456789e-27", "1234567890123456789e27",
	"1000000000000000000000", "150000000000000000000", "1.0000000000000000000000", "1.00000000000000000001",
	"9007199254740993", "9007199254740995", "4503599627370496.5", "4503599627370497.5", "1e23", "8.41e21",
	"0.1", "0.10000000149011612", "1.1754943508222875e-38", "3.4028234663852886e+38", "1e-07", "1E+02",
	"-", "+1", ".5", "01", "-01", "1.", "1.e5", "1e", "1e+", "1e5.5", "1ee5", "", " 1", "NaN", "1_0", "0x1p3",
	// Eight-byte runs that are not all digits (':' to '?' share the
	// digits' high nibble), and zeros that fill a whole run.
	"0.1234567:8", "0.12345678?", "0.9/876543", "1.000000000000000000001", "0.00000000123456789012345678",
	// Only the division's remainder tells these from a tie.
	"2723686826725134128e-27", "6544522857610742961e-27",
	// Round-ups that carry into the exponent.
	"9007199254740991.5", "0.9999999999999999999", "9.31322574615478515e-10",
	// Literals Eisel–Lemire leaves to the exact division (eiselFallbacks).
	"0.5", "-0.43558502197265625", "1450653076171875e-15", "2362355903004371250e-4", "3698990788485674e1",
}

// digitRuns are literals whose digit runs stop one short of, at and one
// past the eight-digit steps (8, 16) and the 19-digit cap, before and
// after the point.
var digitRuns = func() (lits []string) {
	const digits = "98765432109876543210"
	for _, n := range []int{7, 8, 9, 15, 16, 17, 19, 20} {
		d := digits[:n]
		lits = append(lits, d, d+".5", "0."+d, "3."+d, "0.000"+d, "-"+d+"."+d, d+"e-9")
	}
	return lits
}()

// eiselFallbacks are literals eiselLemire cannot decide, so the exact
// division rounds them. The first three are exact ties between two
// float64s (2^53+1, 2^54+2, and a 16-digit one scaled by 10): the
// product has only zeros below the rounding bit and may be exactly half.
// The rest are exactly float64s, or ties, whose value at negative e the
// rounded-down table puts a hair under a boundary: the wider product
// still ends in all ones, and a carry from the truncated bits could cross
// it. A float64 of few significant bits printed in full, as json.Marshal
// prints some float32s, is the common case (about 0.5 % of N(0,1) draws).
var eiselFallbacks = []string{
	"9007199254740993", "18014398509481986", "3698990788485674e1",
	"4503599627370496.5", "0.5", "-0.43558502197265625", "1450653076171875e-15", "2362355903004371250e-4",
	"0.0078125", "1234.5625",
}

// halfway returns the exact midpoint between x and the next float64 away
// from zero in 'e' form with digits digits after the point, rounded where
// it needs more.
func halfway(x float64, digits int) string {
	mid := new(big.Float).SetPrec(64).SetFloat64(x)
	mid.Add(mid, new(big.Float).SetPrec(64).SetFloat64(math.Nextafter(x, math.Copysign(math.Inf(1), x))))
	mid.Quo(mid, big.NewFloat(2))
	return mid.Text('e', digits)
}

// tie draws an exact tie of at most 19 digits: (2j+1)·2^s for a 53-bit j
// and s in [-3, 9], written out in full. Its neighbours one unit in the
// last digit away are the closest non-ties.
func tie(rng *rand.Rand) (lo, mid, hi string) {
	n := new(big.Int).SetUint64(2*(1<<52+rng.Uint64()%(1<<52)) + 1)
	s := rng.Intn(13) - 3
	if s >= 0 {
		n.Lsh(n, uint(s))
	} else {
		n.Mul(n, new(big.Int).Exp(big.NewInt(5), big.NewInt(int64(-s)), nil))
	}
	text := func(n *big.Int) string {
		d := n.String()
		if s < 0 {
			d = d[:len(d)+s] + "." + d[len(d)+s:]
		}
		return d
	}
	one := big.NewInt(1)
	return text(new(big.Int).Sub(n, one)), text(n), text(new(big.Int).Add(n, one))
}

// TestScanNumberMatchesParseFloat holds scanNumber to strconv.ParseFloat
// on the edge cases and on ~200k seeded literals in three families. It is
// also the canary for the decoder's speed: every float32-rounded value
// json.Marshal prints with a magnitude from 1e-11 up, from the client's
// N(0,1) draws and from the float32 normal range, must take the exact
// path, because a silent fallback to ParseFloat would keep every value
// right and lose the gain.
func TestScanNumberMatchesParseFloat(t *testing.T) {
	for _, s := range slices.Concat(scanNumberEdges, digitRuns) {
		checkScanNumber(t, []byte(s), 0)
	}
	// Dropped zeros against an exponent literal past 10^4, which strconv
	// saturates; too long a seed for FuzzScanNumber.
	checkScanNumber(t, []byte("1"+strings.Repeat("0", 10018)+"e-100000"), 0)
	rng := rand.New(rand.NewSource(1))
	perFamily := 70000
	if raceEnabled {
		perFamily /= 4 // the race detector makes each literal ~8× dearer
	}
	// Family 1: float32-rounded values as json.Marshal formats a float64.
	// The client's N(0,1) draws must also stay off the exact division
	// but for the few eiselFallbacks describes.
	divided := 0
	for k := range perFamily {
		x := float64(float32(rng.NormFloat64()))
		if k%2 == 1 {
			bits := uint32(1+rng.Intn(254))<<23 | rng.Uint32()&(1<<23-1) | rng.Uint32()&(1<<31)
			x = float64(math.Float32frombits(bits))
		}
		lit, err := json.Marshal(x)
		if err != nil {
			t.Fatal(err)
		}
		if !checkScan(t, lit, 0, len(lit)) && math.Abs(x) >= 1e-11 {
			t.Fatalf("float32-rounded %s left the exact path", lit)
		}
		if k%2 == 0 && x != 0 {
			if _, ok := eiselLemire(mantExp(t, string(lit))); !ok {
				divided++
			}
		}
	}
	if divided > perFamily/2/100 {
		t.Fatalf("%d of %d N(0,1) literals needed the exact division, over 1 %%", divided, perFamily/2)
	}
	// Family 2: random decimal literals of 1–20 digits, half of them with
	// an exponent.
	var lit []byte
	for range perFamily {
		lit = lit[:0]
		if rng.Intn(2) == 0 {
			lit = append(lit, '-')
		}
		digits := 1 + rng.Intn(20)
		dot := 1 + rng.Intn(digits)
		for k := range digits {
			c := byte('0' + rng.Intn(10))
			switch {
			case k == dot:
				lit = append(lit, '.', c)
			case k < dot-1 && c == '0' && (len(lit) == 0 || lit[len(lit)-1] == '-'):
				// no leading zero before the units digit
			default:
				lit = append(lit, c)
			}
		}
		if rng.Intn(2) == 0 {
			lit = strconv.AppendInt(append(lit, 'e'), int64(rng.Intn(121)-60), 10)
		}
		checkScan(t, lit, 0, len(lit))
	}
	// Family 3: ties and their neighbours, all on the exact path, and
	// midpoints of random float64s written out to 25 digits, which fall
	// back.
	for range perFamily / 4 {
		lo, mid, hi := tie(rng)
		for _, s := range []string{lo, mid, hi} {
			if !checkScan(t, []byte(s), 0, len(s)) {
				t.Fatalf("tie neighbourhood %s left the exact path", s)
			}
		}
		x := math.Float64frombits(uint64(1023-200+rng.Intn(401))<<52 | rng.Uint64()&(1<<52-1))
		s := halfway(x, 25)
		checkScan(t, []byte(s), 0, len(s))
	}
}

// TestEiselLemireFallbacks: every eiselFallbacks literal leaves
// eiselLemire undecided and still reads as strconv.ParseFloat reads it.
func TestEiselLemireFallbacks(t *testing.T) {
	for _, s := range eiselFallbacks {
		m, e := mantExp(t, s)
		if v, ok := eiselLemire(m, e); ok {
			t.Fatalf("eiselLemire(%d, %d) decided %v for %s; the list expects the exact fallback", m, e, v, s)
		}
		if !checkScanNumber(t, []byte(s), 0) {
			t.Fatalf("%s left the exact path", s)
		}
	}
}

// mantExp splits a literal of at most 19 significant digits into
// m·10^e.
func mantExp(t *testing.T, s string) (m uint64, e int) {
	t.Helper()
	s = strings.TrimPrefix(s, "-")
	if i := strings.IndexAny(s, "eE"); i >= 0 {
		x, err := strconv.Atoi(s[i+1:])
		if err != nil {
			t.Fatal(err)
		}
		s, e = s[:i], x
	}
	if i := strings.IndexByte(s, '.'); i >= 0 {
		e -= len(s) - i - 1
		s = s[:i] + s[i+1:]
	}
	m, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		t.Fatal(err)
	}
	return m, e
}

// TestPow10Table holds every pow10 entry to ⌊10^e·2^k⌋ for the k that
// puts it in [2^127, 2^128), computed in math/big.
func TestPow10Table(t *testing.T) {
	lo, hi := new(big.Int).Lsh(big.NewInt(1), 127), new(big.Int).Lsh(big.NewInt(1), 128)
	for e := -maxPow5; e <= maxPow5; e++ {
		num, den := big.NewInt(1), big.NewInt(1)
		p := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(max(e, -e))), nil)
		if e >= 0 {
			num = p
		} else {
			den = p
		}
		for new(big.Int).Quo(num, den).Cmp(lo) < 0 {
			num.Lsh(num, 1)
		}
		for new(big.Int).Quo(num, den).Cmp(hi) >= 0 {
			den.Lsh(den, 1)
		}
		want := new(big.Int).Quo(num, den)
		got := new(big.Int).Lsh(new(big.Int).SetUint64(pow10[e+maxPow5][0]), 64)
		got.Or(got, new(big.Int).SetUint64(pow10[e+maxPow5][1]))
		if got.Cmp(want) != 0 {
			t.Fatalf("pow10 for 10^%d = %#x, want %#x", e, got, want)
		}
	}
}

// TestDecodeInferAllocsFlat: decoding allocates per request, never per
// value — a 25,600-value body costs at most two allocations more than a
// 490-value one. The garbage collector is off for the count so the pooled
// buffers survive between runs, as they do between requests at load.
func TestDecodeInferAllocsFlat(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector changes allocation counts")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := make([]float64, len(decodeLayouts))
	for i, c := range decodeLayouts {
		body := fp32Body(c.layout.Elems())
		allocs[i] = testing.AllocsPerRun(20, func() { decodeAndQuantize(t, body, c.layout) })
	}
	if large, small := allocs[0], allocs[1]; large > small+2 {
		t.Fatalf("decode allocates %.0f objects for 25,600 values vs %.0f for 490: per-value allocations crept in", large, small)
	}
}
