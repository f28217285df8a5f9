package serve

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"strconv"
	"strings"
	"sync"
)

// The v2 infer-body decoder. One pass over a pooled copy of the body
// reads the members both infer endpoints use (id, inputs[{name, datatype,
// shape, data}], parameters{string: string}) and validates and skips
// every other member. It accepts what json.Unmarshal into a
// {ID, Inputs, Parameters} struct accepts and yields the same values:
//
//   - keys match case-insensitively, the way encoding/json matches struct
//     fields (bytes.EqualFold on the unescaped key);
//   - every number goes through one scanner, scanNumber, that checks the
//     JSON grammar and, in the same pass, rounds a literal of up to 19
//     significant digits and a small exponent to float64: by Eisel–Lemire
//     over a 128-bit power-of-ten table (eiselLemire), and, for the few
//     literals that leaves undecided, by an exact 128-by-64-bit division
//     (exactFloat). Any other literal goes to strconv.ParseFloat(…, 64),
//     which is what encoding/json calls, so every float is bit-identical
//     to its reading and an out-of-range literal such as 1e400 is
//     refused. Shape entries are parsed with strconv.ParseInt;
//   - strings that carry an escape or a non-ASCII byte are unquoted by
//     encoding/json itself, so unescaping and invalid UTF-8 read back the
//     same;
//   - null means "absent" for a member, zero for a shape or data element
//     and "" for a parameter value;
//   - nesting deeper than encoding/json's limit is refused, and so is any
//     byte other than whitespace after the top-level value.
//
// It is stricter in one way: a member the struct knows (in any case
// spelling) may appear only once per object, where encoding/json would
// merge or overwrite the repeats. docs/API.md lists this divergence and
// TestInferDecodeDivergences pins it.

const (
	// maxJSONDepth is encoding/json's nesting limit.
	maxJSONDepth = 10000
	// maxPooledBytes bounds the buffers kept for reuse: a body or float
	// buffer grown past it by an unusually large client batch goes to the
	// garbage collector instead of pinning that memory in the pool.
	maxPooledBytes = 4 << 20
)

var (
	bodyPool  = sync.Pool{New: func() any { return new(bytes.Buffer) }}
	floatPool = sync.Pool{New: func() any { return new([]float64) }}

	requestFields = []string{"id", "inputs", "parameters"}
	tensorFields  = []string{"name", "datatype", "shape", "data"}
)

// inferBody is one decoded v2 infer request. The Data of its inputs views
// a pooled float buffer: call release once the response is written, and
// keep no Data slice past that.
type inferBody struct {
	ID         string
	Inputs     []v2Tensor
	Parameters map[string]string

	floats *[]float64
}

// release returns the float buffer behind the inputs' Data to the pool.
func (b inferBody) release() { putFloats(b.floats) }

func putFloats(p *[]float64) {
	if p != nil && cap(*p)*8 <= maxPooledBytes {
		floatPool.Put(p)
	}
}

// readInferBody reads a bounded request body into a pooled buffer and
// decodes it. sizeHint (the Content-Length, when known) presizes a fresh
// buffer. The body buffer goes back to the pool before it returns: every
// string the request keeps is a copy, and Data lives in the float buffer.
func readInferBody(r io.Reader, sizeHint int64) (inferBody, error) {
	buf := bodyPool.Get().(*bytes.Buffer)
	buf.Reset()
	if sizeHint > 0 {
		buf.Grow(int(min(sizeHint, maxPooledBytes)) + bytes.MinRead)
	}
	var req inferBody
	_, err := buf.ReadFrom(r)
	if err == nil {
		req, err = parseInferBody(buf.Bytes())
	}
	if buf.Cap() <= maxPooledBytes {
		bodyPool.Put(buf)
	}
	return req, err
}

// parseInferBody decodes one v2 infer body. On success the caller owns
// the returned request and must release it.
func parseInferBody(body []byte) (inferBody, error) {
	fp := floatPool.Get().(*[]float64)
	d := decoder{b: body, floats: (*fp)[:0]}
	req, err := d.request()
	*fp = d.floats[:0] // keep whatever capacity the parse grew
	if err != nil {
		putFloats(fp)
		return inferBody{}, err
	}
	req.floats = fp
	return req, nil
}

// decoder is the parse state: the body and the next byte to read, plus
// the float buffer every input's data values are appended to.
type decoder struct {
	b      []byte
	i      int
	floats []float64
}

// request decodes the top-level value and refuses anything but whitespace
// after it. A top-level null is an empty request, as for json.Unmarshal.
func (d *decoder) request() (req inferBody, err error) {
	d.ws()
	if !d.null() {
		err = d.fields(1, requestFields, func(field int) (err error) {
			switch field {
			case 0:
				req.ID, err = d.str()
			case 1:
				req.Inputs, err = d.inputs(2)
			case 2:
				req.Parameters, err = d.params(2)
			}
			return err
		})
		if err != nil {
			return req, err
		}
	}
	if d.ws(); d.i < len(d.b) {
		return req, fmt.Errorf("invalid character %q after top-level value at offset %d", d.b[d.i], d.i)
	}
	return req, nil
}

// inputs decodes the inputs array. Each tensor's data is appended to the
// float buffer as it is read; the Data views are cut once the array is
// closed, when no later append can move the buffer under them.
func (d *decoder) inputs(depth int) ([]v2Tensor, error) {
	if d.null() {
		return nil, nil
	}
	tensors := []v2Tensor{}
	var spans [][2]int
	err := d.array(depth, func() error {
		var t v2Tensor
		start, end := len(d.floats), len(d.floats)
		if !d.null() {
			err := d.fields(depth+1, tensorFields, func(field int) (err error) {
				switch field {
				case 0:
					t.Name, err = d.str()
				case 1:
					t.Datatype, err = d.str()
				case 2:
					t.Shape, err = d.shape(depth + 2)
				case 3:
					start, end, err = d.data(depth + 2)
				}
				return err
			})
			if err != nil {
				return err
			}
		}
		tensors = append(tensors, t)
		spans = append(spans, [2]int{start, end})
		return nil
	})
	for k, s := range spans {
		tensors[k].Data = d.floats[s[0]:s[1]:s[1]]
	}
	return tensors, err
}

// data appends one data array to the float buffer and returns where it
// sits there. Its elements are the decoder's hot path (a VWW-1 row is
// 25,600 values), so it walks the array itself, with scanNumber,
// whitespace and commas inline, instead of through array's per-element
// closure; float runs only for null and for a literal scanNumber cannot
// round exactly. It accepts and refuses what array over float would,
// with the same errors.
func (d *decoder) data(depth int) (start, end int, err error) {
	start = len(d.floats)
	if d.null() {
		return start, start, nil
	}
	if err := d.open('[', depth, "an array"); err != nil {
		return start, start, err
	}
	if d.ws(); d.consume(']') {
		return start, start, nil
	}
	b, i := d.b, d.i
	for {
		i = skipWS(b, i)
		v, end, exact := scanNumber(b, i)
		if end >= 0 && exact {
			i = end
		} else {
			d.i = i
			v, err = d.float()
			if err != nil {
				return start, len(d.floats), err
			}
			i = d.i
		}
		d.floats = append(d.floats, v)
		i = skipWS(b, i)
		if i < len(b) && b[i] == ',' {
			i++
			continue
		}
		d.i = i
		if d.consume(']') {
			return start, len(d.floats), nil
		}
		return start, len(d.floats), d.expected("',' or ']' after array element")
	}
}

// float reads one data element: a JSON number, or null for zero. A
// literal scanNumber cannot round exactly goes to strconv.ParseFloat.
func (d *decoder) float() (float64, error) {
	v, end, exact := scanNumber(d.b, d.i)
	if end < 0 {
		if d.null() {
			return 0, nil
		}
		return 0, d.expected("a number in data")
	}
	if !exact {
		// The conversion does not escape (strconv copies the text into any
		// error it returns), so a short literal is converted on the stack.
		var err error
		if v, err = strconv.ParseFloat(string(d.b[d.i:end]), 64); err != nil {
			return 0, fmt.Errorf("data value %s at offset %d does not fit a float64", clip(d.b[d.i:end]), d.i)
		}
	}
	d.i = end
	return v, nil
}

// shape decodes a shape array of integers; a fraction, an exponent or a
// value past int64 is refused, as encoding/json refuses it for an int.
func (d *decoder) shape(depth int) ([]int, error) {
	if d.null() {
		return nil, nil
	}
	shape := []int{}
	err := d.array(depth, func() error {
		if d.null() {
			shape = append(shape, 0)
			return nil
		}
		_, end, _ := scanNumber(d.b, d.i)
		if end < 0 {
			return d.expected("an integer in shape")
		}
		v, err := strconv.ParseInt(string(d.b[d.i:end]), 10, 64)
		if err != nil {
			return fmt.Errorf("shape value %s at offset %d is not an int", clip(d.b[d.i:end]), d.i)
		}
		shape = append(shape, int(v))
		d.i = end
		return nil
	})
	return shape, err
}

// params decodes the parameters object. A repeated key keeps its last
// value and a null value reads as "", as for a Go map[string]string.
func (d *decoder) params(depth int) (map[string]string, error) {
	if d.null() {
		return nil, nil
	}
	m := map[string]string{}
	err := d.object(depth, func(key []byte, plain bool) error {
		k, err := unquote(key, plain)
		if err != nil {
			return err
		}
		m[k], err = d.str()
		return err
	})
	return m, err
}

// str reads a string member value; null reads as "".
func (d *decoder) str() (string, error) {
	if d.null() {
		return "", nil
	}
	if d.i >= len(d.b) || d.b[d.i] != '"' {
		return "", d.expected("a string")
	}
	end, plain, err := scanString(d.b, d.i)
	if err != nil {
		return "", err
	}
	tok := d.b[d.i:end]
	d.i = end
	return unquote(tok, plain)
}

// unquote turns a scanned string token into its Go string. A plain token
// (no escape, all ASCII) is its own text; anything else goes through
// encoding/json, which owns the unescaping and U+FFFD rules.
func unquote(tok []byte, plain bool) (string, error) {
	if plain {
		return string(tok[1 : len(tok)-1]), nil
	}
	var s string
	err := json.Unmarshal(tok, &s)
	return s, err
}

// fields decodes a struct-like object: a member whose key matches one of
// names the way encoding/json matches a struct field is handed to set with
// the name's index, with d.i at its value; any other member is validated
// and skipped. A known member may appear only once.
func (d *decoder) fields(depth int, names []string, set func(field int) error) error {
	var seen uint
	return d.object(depth, func(key []byte, plain bool) error {
		k := key[1 : len(key)-1]
		if !plain {
			s, err := unquote(key, false)
			if err != nil {
				return err
			}
			k = []byte(s)
		}
		for f, name := range names {
			if !bytes.EqualFold(k, []byte(name)) {
				continue
			}
			if seen&(1<<f) != 0 {
				return fmt.Errorf("duplicate %q member at offset %d", name, d.i)
			}
			seen |= 1 << f
			return set(f)
		}
		return d.skip(depth + 1)
	})
}

// object walks the object at d.i, calling member for each key token with
// d.i at the member's value; member must consume that value.
func (d *decoder) object(depth int, member func(key []byte, plain bool) error) error {
	if err := d.open('{', depth, "an object"); err != nil {
		return err
	}
	if d.ws(); d.consume('}') {
		return nil
	}
	for {
		if d.ws(); d.i >= len(d.b) || d.b[d.i] != '"' {
			return d.expected("a string object key")
		}
		end, plain, err := scanString(d.b, d.i)
		if err != nil {
			return err
		}
		key := d.b[d.i:end]
		d.i = end
		if d.ws(); !d.consume(':') {
			return d.expected("':' after object key")
		}
		d.ws()
		if err := member(key, plain); err != nil {
			return err
		}
		d.ws()
		if d.consume(',') {
			continue
		}
		if d.consume('}') {
			return nil
		}
		return d.expected("',' or '}' after object member")
	}
}

// array walks the array at d.i, calling elem with d.i at each element;
// elem must consume it.
func (d *decoder) array(depth int, elem func() error) error {
	if err := d.open('[', depth, "an array"); err != nil {
		return err
	}
	if d.ws(); d.consume(']') {
		return nil
	}
	for {
		d.ws()
		if err := elem(); err != nil {
			return err
		}
		d.ws()
		if d.consume(',') {
			continue
		}
		if d.consume(']') {
			return nil
		}
		return d.expected("',' or ']' after array element")
	}
}

// skip validates and steps over one value of any kind.
func (d *decoder) skip(depth int) error {
	if d.i >= len(d.b) {
		return d.expected("a value")
	}
	switch c := d.b[d.i]; {
	case c == '{':
		return d.object(depth, func([]byte, bool) error { return d.skip(depth + 1) })
	case c == '[':
		return d.array(depth, func() error { return d.skip(depth + 1) })
	case c == '"':
		end, _, err := scanString(d.b, d.i)
		d.i = end
		return err
	case c == '-' || isDigit(c):
		_, end, _ := scanNumber(d.b, d.i)
		if end < 0 {
			return d.expected("a number")
		}
		d.i = end
		return nil
	case d.literal("true"), d.literal("false"), d.literal("null"):
		return nil
	}
	return d.expected("a value")
}

// open consumes the opening bracket of a container at nesting depth.
func (d *decoder) open(c byte, depth int, what string) error {
	if d.i >= len(d.b) || d.b[d.i] != c {
		return d.expected(what)
	}
	if depth > maxJSONDepth {
		return fmt.Errorf("nesting deeper than %d at offset %d", maxJSONDepth, d.i)
	}
	d.i++
	return nil
}

// ws skips JSON whitespace.
func (d *decoder) ws() { d.i = skipWS(d.b, d.i) }

// skipWS returns the index of the first byte at or after i that is not
// JSON whitespace.
func skipWS(b []byte, i int) int {
	for i < len(b) {
		switch b[i] {
		case ' ', '\t', '\n', '\r':
			i++
		default:
			return i
		}
	}
	return i
}

// consume steps over c if it is the next byte.
func (d *decoder) consume(c byte) bool {
	if d.i < len(d.b) && d.b[d.i] == c {
		d.i++
		return true
	}
	return false
}

// literal steps over lit if the body continues with it.
func (d *decoder) literal(lit string) bool {
	if len(d.b)-d.i >= len(lit) && string(d.b[d.i:d.i+len(lit)]) == lit {
		d.i += len(lit)
		return true
	}
	return false
}

func (d *decoder) null() bool { return d.literal("null") }

// expected reports what the decoder wanted at d.i. The message copies the
// offending byte, never a view of the pooled body.
func (d *decoder) expected(what string) error {
	if d.i >= len(d.b) {
		return fmt.Errorf("unexpected end of JSON input, want %s", what)
	}
	return fmt.Errorf("invalid character %q at offset %d, want %s", d.b[d.i], d.i, what)
}

// clip quotes at most 32 bytes of tok for an error message (a copy).
func clip(tok []byte) string {
	if len(tok) > 32 {
		return strconv.Quote(string(tok[:32])) + "…"
	}
	return strconv.Quote(string(tok))
}

func isDigit(c byte) bool { return '0' <= c && c <= '9' }

// maxPow5 is the largest k with 5^k below 2^64.
const maxPow5 = 27

// pow5 holds 5^0 … 5^maxPow5.
var pow5 = func() (p [maxPow5 + 1]uint64) {
	p[0] = 1
	for k := 1; k < len(p); k++ {
		p[k] = 5 * p[k-1]
	}
	return p
}()

// pow10 holds 10^e for e in [-maxPow5, maxPow5] as 128-bit mantissas
// (hi, lo) with the top bit set, rounded down: 10^e = 5^e·2^e, so the
// entry is 5^e shifted left for e ≥ 0 (exact, lo = 0) and the 128-bit
// quotient ⌊2^(127+L)/5^-e⌋, L the bit length of 5^-e, for e < 0.
var pow10 = func() (p [2*maxPow5 + 1][2]uint64) {
	for e := -maxPow5; e <= maxPow5; e++ {
		if e >= 0 {
			p[e+maxPow5] = [2]uint64{pow5[e] << bits.LeadingZeros64(pow5[e]), 0}
			continue
		}
		// Long division of the single bit 2^(127+L) (in the top word of
		// three, at bit L-1) by d; the quotient has 128 bits.
		d := pow5[-e]
		_, r := bits.Div64(0, 1<<(bits.Len64(d)-1), d)
		hi, r := bits.Div64(r, 0, d)
		lo, _ := bits.Div64(r, 0, d)
		p[e+maxPow5] = [2]uint64{hi, lo}
	}
	return p
}()

// scanNumber reads the JSON number at b[i] in one pass. end is the index
// just past the longest match of -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at i, or -1 if none starts there; the grammar keeps out what
// strconv.ParseFloat would also take (NaN, Inf, hex, underscores, a
// leading '+' or '.').
//
// On the way it gathers up to 19 significant digits into a mantissa m and
// a decimal exponent e, eight fraction digits at a time where it can
// (eightDigits). When the literal is exactly m·10^e (no nonzero
// digit past the 19th, an exponent literal below 10^4) with e in
// [-maxPow5, maxPow5], or is zero, exact is true and v is the correctly
// rounded float64 (eiselLemire, else exactFloat): bit for bit what
// strconv.ParseFloat returns. That
// covers every float32 json.Marshal prints with a magnitude from 1e-11 up
// (17 digits at most). Otherwise exact is false and the caller parses
// b[i:end] with strconv.ParseFloat.
func scanNumber(b []byte, i int) (v float64, end int, exact bool) {
	n := len(b)
	neg := i < n && b[i] == '-'
	if neg {
		i++
	}
	var m uint64
	nd, e := 0, 0    // significant digits in m; the exponent of its last one
	inexact := false // a nonzero digit past the 19th, or a huge exponent
	switch {
	case i < n && b[i] == '0':
		i++
	case i < n && '1' <= b[i] && b[i] <= '9':
		for ; i < n && isDigit(b[i]); i++ {
			if nd < 19 {
				m = 10*m + uint64(b[i]-'0')
				nd++
			} else {
				e++
				inexact = inexact || b[i] != '0'
			}
		}
	default:
		return 0, -1, false
	}
	if i+1 < n && b[i] == '.' && isDigit(b[i+1]) {
		i++
		if m == 0 { // leading zeros (0.000…) only move the exponent
			for ; i < n && b[i] == '0'; i++ {
				e--
			}
		}
		for nd <= 19-8 && i+8 <= n {
			d, ok := eightDigits(b[i:])
			if !ok {
				break
			}
			m = 1e8*m + d
			nd += 8
			e -= 8
			i += 8
		}
		for ; i < n && isDigit(b[i]); i++ {
			if nd < 19 {
				m = 10*m + uint64(b[i]-'0')
				nd++
				e--
			} else {
				inexact = inexact || b[i] != '0'
			}
		}
	}
	if i < n && (b[i] == 'e' || b[i] == 'E') {
		j, sign := i+1, 1
		if j < n && (b[j] == '+' || b[j] == '-') {
			if b[j] == '-' {
				sign = -1
			}
			j++
		}
		if j < n && isDigit(b[j]) {
			x := 0
			for ; j < n && isDigit(b[j]); j++ {
				if x < 1e4 {
					x = 10*x + int(b[j]-'0')
				}
			}
			inexact = inexact || x >= 1e4
			e += sign * x
			i = j
		}
	}
	switch {
	case m == 0:
		if neg {
			return math.Copysign(0, -1), i, true
		}
		return 0, i, true
	case inexact || e < -maxPow5 || e > maxPow5:
		return 0, i, false
	}
	v, ok := eiselLemire(m, e)
	if !ok {
		v = exactFloat(m, e)
	}
	if neg {
		v = -v
	}
	return v, i, true
}

// eightDigits reads b[:8] as eight decimal digits in one 64-bit word
// (SWAR), if all eight are digits: a byte is one when both b+0x46 and
// b−0x30 leave its top bit clear, and three multiply-adds fold the digit
// pairs, quads and the two halves.
func eightDigits(b []byte) (uint64, bool) {
	v := binary.LittleEndian.Uint64(b)
	if ((v+0x4646464646464646)|(v-0x3030303030303030))&0x8080808080808080 != 0 {
		return 0, false
	}
	v -= 0x3030303030303030
	v = 10*v + v>>8 // byte 2k holds the pair b[2k]b[2k+1]
	return ((v&0x000000FF000000FF)*(100+1000000<<32) + (v>>16&0x000000FF000000FF)*(1+10000<<32)) >> 32, true
}

// eiselLemire rounds m·10^e (m > 0, e in [-maxPow5, maxPow5]) to the
// nearest float64, ties to even, by the Eisel–Lemire algorithm (as in
// strconv): the normalized m times pow10[e] in 128 bits, with a second
// multiply by the table's low word where the first product's bits below
// the 54th could still carry. The table rounds 10^e down, so the product
// is a slight underestimate; ok is false where that leaves the rounding
// undecided — the wider product still ends in all ones, or it lies
// exactly halfway between two float64s — and the caller then rounds
// exactly (exactFloat). Both are rare in a client's body: a value that is
// exactly a float64 of few significant bits (0.5, or a float32
// json.Marshal prints in full) or an exact tie, ~0.5 % of N(0,1) draws.
func eiselLemire(m uint64, e int) (v float64, ok bool) {
	clz := bits.LeadingZeros64(m)
	m <<= clz
	// 217706/2^16 is log2(10) to within the [-348, 347] range strconv
	// uses, so the first term is ⌊e·log2(10)⌋.
	exp := uint64(217706*e>>16+64+1023) - uint64(clz)
	pw := &pow10[e+maxPow5]
	xhi, xlo := bits.Mul64(m, pw[0])
	if xhi&0x1FF == 0x1FF && xlo+m < m {
		// The bits below the 54th are all ones and the truncation error
		// (less than m) could carry past them: add m·lo.
		yhi, ylo := bits.Mul64(m, pw[1])
		mhi, mlo := xhi, xlo+yhi
		if mlo < xlo {
			mhi++
		}
		if mhi&0x1FF == 0x1FF && mlo+1 == 0 && ylo+m < m {
			return 0, false
		}
		xhi, xlo = mhi, mlo
	}
	// Keep 54 bits: the top one and a rounding bit.
	msb := xhi >> 63
	mant := xhi >> (msb + 9)
	exp -= 1 ^ msb
	if xlo == 0 && xhi&0x1FF == 0 && mant&3 == 1 {
		return 0, false // halfway: the dropped bits may be exactly zero
	}
	mant += mant & 1
	mant >>= 1
	if mant>>53 > 0 {
		mant >>= 1
		exp++
	}
	// The value lies in [1e-27, 1e46], a normal float64: exp is in range.
	return math.Float64frombits(exp<<52 | mant&(1<<52-1)), true
}

// exactFloat rounds m·10^e (m > 0, e in [-maxPow5, maxPow5]) to the
// nearest float64, ties to even, where eiselLemire cannot decide. As 10^e = 5^e·2^e, only the power of five
// takes arithmetic: for e ≥ 0 the 128-bit product m·5^e; for e < 0 the
// 128-by-64-bit quotient of m, shifted left, by 5^-e, its remainder kept
// as a sticky bit. Either way the integer W below has at least 63
// significant bits, so one rounding of its top 64 bits plus the sticky bit
// is the correct rounding of the exact value.
func exactFloat(m uint64, e int) float64 {
	var hi, lo uint64 // W = hi·2^64 + lo; the value is W·2^exp
	var exp int
	sticky := false // the value is above W·2^exp by a fraction of 2^exp
	if e >= 0 {
		hi, lo = bits.Mul64(m, pow5[e])
		exp = e
	} else {
		// Shift m by s so that its quotient by d has 63 or 64 bits and the
		// numerator's high word stays below d, as Div64 requires.
		d := pow5[-e]
		s := 63 + bits.Len64(d) - bits.Len64(m)
		var nhi, nlo uint64
		if s >= 64 {
			nhi = m << (s - 64)
		} else {
			nhi, nlo = m>>(64-s), m<<s
		}
		var r uint64
		hi, r = bits.Div64(nhi, nlo, d)
		sticky = r != 0
		exp = e - s - 64
	}
	// Take W's top 64 bits.
	if hi == 0 {
		hi, lo, exp = lo, 0, exp-64
	}
	lz := bits.LeadingZeros64(hi)
	top := hi<<lz | lo>>(64-lz)
	sticky = sticky || lo<<lz != 0
	exp += 64 - lz
	// Keep 53 of top's 64 bits: the value is mant·2^(exp+11) before rounding.
	mant, rest := top>>11, top&(1<<11-1)
	if rest > 1<<10 || rest == 1<<10 && (sticky || mant&1 != 0) {
		mant++
	}
	// The value lies in [1e-27, 1e46], a normal float64 with biased
	// exponent exp+11+52+1023. Adding mant with its implicit bit 2^52 to
	// one less than that exponent carries a round-up to 2^53 into it.
	return math.Float64frombits(uint64(exp+1085)<<52 + mant)
}

// scanString validates the string token starting at the quote b[i] and
// returns the index just past its closing quote. plain reports a token
// with no escape and no byte outside ASCII, whose text is its value.
func scanString(b []byte, i int) (end int, plain bool, err error) {
	plain = true
	for j := i + 1; j < len(b); j++ {
		switch c := b[j]; {
		case c == '"':
			return j + 1, plain, nil
		case c < 0x20:
			return j, false, fmt.Errorf("invalid character %q in string literal at offset %d", c, j)
		case c >= 0x80:
			plain = false
		case c == '\\':
			plain = false
			if j++; j >= len(b) {
				break
			}
			switch b[j] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
			case 'u':
				if j+4 >= len(b) || !isHex4(b[j+1:j+5]) {
					return j, false, fmt.Errorf("invalid \\u escape in string literal at offset %d", j)
				}
				j += 4
			default:
				return j, false, fmt.Errorf("invalid escape %q in string literal at offset %d", b[j], j)
			}
		}
	}
	return len(b), false, fmt.Errorf("unterminated string literal at offset %d", i)
}

func isHex4(h []byte) bool {
	for _, c := range h {
		if strings.IndexByte("0123456789abcdefABCDEF", c) < 0 {
			return false
		}
	}
	return true
}
