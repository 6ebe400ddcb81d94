package gateway

import (
	"math"
	"math/big"
	"math/rand"
	"regexp"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/graph"
	"repro/internal/serve"
	"repro/internal/twoecss"
)

// hardNumbers are the fixed cases of the conversion oracles.
var hardNumbers = []string{
	// 2^53+1, halfway between two floats: Eisel–Lemire refuses.
	"9007199254740993",
	// 1+2^-53, halfway between 1 and the next float, and one unit either
	// side of it in the 54th digit: only all 54 digits decide.
	"1.00000000000000011102230246251565404236316680908203125",
	"1.00000000000000011102230246251565404236316680908203124",
	"1.00000000000000011102230246251565404236316680908203126",
	// 2^52+1/2 and -(2^52+3/2): ties whose power of ten, 1e-1, the table
	// holds inexactly, so Eisel–Lemire must refuse them.
	"4503599627370496.5", "-4503599627370497.5",
	// The largest exact power of ten, the first inexact one (Eisel–Lemire
	// refuses it), and values that one multiply or divide by the inexact
	// 1e23 would round twice.
	"1e22", "1e23", "3e23", "7e-23",
	// The smallest normal float and the smallest subnormal.
	"2.2250738585072011e-308", "4.9406564584124654e-324", "5e-324",
	// The largest float, and just past it a range error.
	"1.7976931348623157e308", "1.7976931348623159e308",
	"1e400", "1e-400", "0e999", "-0",
	// The table's edges and one step past them.
	"1e64", "1e-64", "1e65", "1e-65",
}

// routeNames names the routes for failure messages.
var routeNames = [...]string{
	routeClinger:     "Clinger",
	routeEiselLemire: "Eisel–Lemire",
	routeWider:       "the wider approximation",
	routeRefused:     "an Eisel–Lemire refusal",
	routeTruncated:   "the 19-digit truncation",
	routeOutOfTable:  "the out-of-table fallback",
}

// TestParseNumberMatchesStrconv holds parseNumber to strconv.ParseFloat,
// bit for bit and in the error decision, on the fixed hard cases, on every
// distance of rows served from servebench's ER n=2000 and n=4000 fixtures
// and from a hard D=3 instance, and on random families. It fails when any
// route goes untaken, so every path of convert is checked.
func TestParseNumberMatchesStrconv(t *testing.T) {
	checkPow10Table(t)
	var taken [len(routeNames)]int
	check := func(s string) {
		t.Helper()
		v, end, err := parseNumber([]byte(s), 0)
		want, werr := strconv.ParseFloat(s, 64)
		if end != len(s) || math.Float64bits(v) != math.Float64bits(want) || (err == nil) != (werr == nil) {
			t.Fatalf("%q: %v (bits %#x) err %v, read %d bytes; strconv %v (bits %#x) err %v",
				s, v, math.Float64bits(v), err, end, want, math.Float64bits(want), werr)
		}
		man, exp10, neg, trunc, _ := scanNumber([]byte(s), 0)
		_, r := convert(man, exp10, neg, trunc)
		taken[r]++
	}
	for _, s := range hardNumbers {
		check(s)
	}
	for _, row := range servedRows(t) {
		for _, d := range row {
			if !math.IsInf(d, 1) {
				check(strconv.FormatFloat(d, 'g', -1, 64))
			}
		}
	}
	for _, s := range randomNumbers(rand.New(rand.NewSource(1)), 20_000) {
		check(s)
	}
	for r, n := range taken {
		if n == 0 {
			t.Errorf("no value took %s", routeNames[r])
		}
	}
	t.Logf("values per route: %v", taken)
}

// checkPow10Table holds pow10Table to its definition, strconv's for
// detailedPowersOfTen: each entry is the 128-bit significand of 10^q,
// rounded down, with its top bit set. A few entries are pinned to
// strconv's published values. Values alone would not show a table rounded
// up: Eisel–Lemire then errs only for a number within about 2^-128 of a
// tie, and the exact ties it refuses.
func checkPow10Table(t *testing.T) {
	t.Helper()
	for _, c := range []struct {
		q    int
		want [2]uint64
	}{
		{-64, [2]uint64{0x3F2398D747B36224, 0xA87FEA27A539E9A5}},
		{-30, [2]uint64{0xA1258379A94D028D, 0xA2425FF75E14FC31}},
		{-1, [2]uint64{0xCCCCCCCCCCCCCCCC, 0xCCCCCCCCCCCCCCCC}},
		{0, [2]uint64{0, 0x8000000000000000}},
		{30, [2]uint64{0xA400000000000000, 0xC9F2C9CD04674EDE}},
		{64, [2]uint64{0x3CBF6B71C76B25FB, 0xC2781F49FFCFA6D5}},
	} {
		if got := pow10Table[c.q-minPow10]; got != c.want {
			t.Errorf("1e%d: %#x, strconv %#x", c.q, got, c.want)
		}
	}
	one := big.NewInt(1)
	for i, p := range pow10Table {
		q := i + minPow10
		sig := new(big.Int).SetUint64(p[1])
		sig.Or(sig.Lsh(sig, 64), new(big.Int).SetUint64(p[0]))
		next := new(big.Int).Add(sig, one)
		pow := new(big.Int).Exp(big.NewInt(10), big.NewInt(int64(abs(q))), nil)
		// lo ≤ hi < lo' states sig ≤ 10^q·2^k < sig+1 for the k that gives
		// sig 128 bits, both sides scaled to integers.
		var lo, hi, lo1 *big.Int
		if q < 0 {
			lo, lo1 = sig.Mul(sig, pow), next.Mul(next, pow)
			hi = new(big.Int).Lsh(one, uint(127+pow.BitLen()))
		} else if s := pow.BitLen() - 128; s >= 0 {
			lo, hi, lo1 = sig.Lsh(sig, uint(s)), pow, next.Lsh(next, uint(s))
		} else {
			lo, hi, lo1 = sig, pow.Lsh(pow, uint(-s)), next
		}
		if p[1]>>63 != 1 || lo.Cmp(hi) > 0 || hi.Cmp(lo1) >= 0 {
			t.Errorf("1e%d: %#x is not 10^%d's significand rounded down", q, p, q)
		}
	}
}

// servedRows serves three sssp rows from each of servebench's ER fixtures
// (n=2000 and n=4000, built as servebench builds them) and from a hard D=3
// instance.
func servedRows(t *testing.T) [][]float64 {
	t.Helper()
	type input struct {
		g        *graph.Graph
		w        graph.Weights
		parts    [][]graph.NodeID
		seed     int64
		diameter int
	}
	var ins []input
	for _, n := range []int{2000, 4000} {
		rng := rand.New(rand.NewSource(20_210_721 + int64(n)))
		var g *graph.Graph
		for {
			g = gen.ErdosRenyi(n, 12/float64(n), rng)
			if graph.IsConnected(g) && len(twoecss.Bridges(g, allEdges(g))) == 0 {
				break
			}
		}
		w := graph.NewUniformWeights(g.NumEdges(), rng)
		parts, err := gen.VoronoiParts(g, max(4, min(64, n/64)), rng)
		if err != nil {
			t.Fatal(err)
		}
		ins = append(ins, input{g, w, parts, rng.Int63(), 0})
	}
	rng := rand.New(rand.NewSource(3))
	hi, err := gen.NewHardInstance(4000, 3, 0, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	ins = append(ins, input{hi.G, graph.NewUniformWeights(hi.G.NumEdges(), rng), hi.Paths, rng.Int63(), 3})
	var rows [][]float64
	for _, in := range ins {
		snap, err := serve.NewSnapshot(in.g, in.w, in.parts, serve.SnapshotOptions{
			Rng: rand.New(rand.NewSource(in.seed)), Diameter: in.diameter,
		})
		if err != nil {
			t.Fatal(err)
		}
		srv := serve.NewServer(snap, serve.ServerOptions{Executors: 1})
		for _, src := range []graph.NodeID{0, 1, graph.NodeID(in.g.NumNodes() - 1)} {
			a, err := srv.ServeSSSP(src)
			if err != nil {
				t.Fatal(err)
			}
			rows = append(rows, a.Dist)
		}
	}
	return rows
}

// randomNumbers returns JSON numbers from four sources of floats (random
// bit patterns, uniform [0,10), random decades, integers), each printed
// shortest ('g' -1), with 16–21 significant digits ('e') and with 0–24
// decimals ('f'), plus n random digit strings of up to 25 digits with a
// random point and exponent.
func randomNumbers(rng *rand.Rand, n int) []string {
	sources := []func() float64{
		func() float64 { return math.Float64frombits(rng.Uint64()) },
		func() float64 { return 10 * rng.Float64() },
		func() float64 { return rng.Float64() * math.Pow(10, float64(rng.Intn(81)-40)) },
		func() float64 { return float64(rng.Int63() >> rng.Intn(63)) },
	}
	var out []string
	for _, src := range sources {
		for k := 0; k < n; k++ {
			v := src()
			if math.IsNaN(v) || math.IsInf(v, 0) {
				continue
			}
			out = append(out,
				strconv.FormatFloat(v, 'g', -1, 64),
				strconv.FormatFloat(v, 'e', 15+rng.Intn(6), 64),
				strconv.FormatFloat(v, 'f', rng.Intn(25), 64))
		}
	}
	for k := 0; k < n; k++ {
		out = append(out, randomDigits(rng))
	}
	return out
}

// randomDigits returns a JSON number of 1–25 random digits, with the point
// after any of them and, half the time, an exponent in [-45, 45].
func randomDigits(rng *rand.Rand) string {
	digits := make([]byte, 1+rng.Intn(25))
	for i := range digits {
		digits[i] = byte('0' + rng.Intn(10))
	}
	var s []byte
	if rng.Intn(2) == 0 {
		s = append(s, '-')
	}
	switch point := rng.Intn(len(digits) + 1); {
	case point == 0:
		s = append(append(s, "0."...), digits...)
	default:
		if point > 1 && digits[0] == '0' { // JSON's integer part has no leading zero
			digits[0] = byte('1' + rng.Intn(9))
		}
		s = append(s, digits[:point]...)
		if point < len(digits) {
			s = append(append(s, '.'), digits[point:]...)
		}
	}
	if rng.Intn(2) == 0 {
		s = strconv.AppendInt(append(s, 'e'), int64(rng.Intn(91)-45), 10)
	}
	return string(s)
}

// jsonNumber is the JSON number grammar scanNumber checks.
var jsonNumber = regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)

// FuzzParseNumber holds parseNumber to strconv.ParseFloat on the JSON
// number grammar: an input the grammar accepts is read whole, with
// strconv's bits and error decision; any number read from a prefix is one
// the grammar accepts, converted likewise; and no input outside the
// grammar is read whole.
func FuzzParseNumber(f *testing.F) {
	for _, s := range hardNumbers {
		f.Add(s)
	}
	for _, s := range []string{
		"", "-", "01", "-01", "1.", ".5", "+1", "1e", "1e+", "1E-", "--1", "1.5.5", "1e5e5",
		"0x10", "1_000", "Inf", "NaN", " 1", "1 ", "1,", "0.30000000000000004", "12345678901234567890123",
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, s string) {
		v, end, err := parseNumber([]byte(s), 0)
		if whole := jsonNumber.MatchString(s); whole != (end == len(s) && end > 0) {
			t.Fatalf("%q: read %d of %d bytes; grammar accepts the input: %v", s, end, len(s), whole)
		}
		if end == 0 {
			return
		}
		if !jsonNumber.MatchString(s[:end]) {
			t.Fatalf("%q: read %q, which the grammar refuses", s, s[:end])
		}
		want, werr := strconv.ParseFloat(s[:end], 64)
		if math.Float64bits(v) != math.Float64bits(want) || (err == nil) != (werr == nil) {
			t.Fatalf("%q: %v err %v; strconv %v err %v", s[:end], v, err, want, werr)
		}
	})
}
