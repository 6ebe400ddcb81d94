package gateway

import (
	"math"
	"math/big"
	"math/bits"
	"strconv"
)

// parseNumber reads the JSON number -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?
// at b[i] and returns its value and end; end is i when no number starts
// there, including a malformed one such as "1." or "1e". The value and the
// error are what strconv.ParseFloat returns for b[i:end]: scanNumber reads
// the number in one pass, convert decides it exactly where it can, and
// strconv.ParseFloat converts the rest, so range errors come from strconv.
func parseNumber(b []byte, i int) (v float64, end int, err error) {
	man, exp10, neg, trunc, end := scanNumber(b, i)
	if end == i {
		return 0, i, nil
	}
	if v, r := convert(man, exp10, neg, trunc); r < routeRefused {
		return v, end, nil
	}
	v, err = strconv.ParseFloat(string(b[i:end]), 64)
	return v, end, err
}

// scanNumber checks the JSON number grammar at b[i] and, in the same pass,
// reads its value as man·10^exp10, negated when neg. man holds the first 19
// significant digits (10^19 < 2^64); trunc reports a nonzero digit after
// them, when man·10^exp10 is not the number's exact value. end is i when no
// number starts at b[i]. As in strconv, a zero man has exp10 0, and an
// exponent's digits stop counting at 10,000, far outside float64's range.
func scanNumber(b []byte, i int) (man uint64, exp10 int, neg, trunc bool, end int) {
	j := i
	if j < len(b) && b[j] == '-' {
		neg = true
		j++
	}
	nd := 0 // significant digits in man
	switch {
	case j < len(b) && b[j] == '0':
		j++
	case j < len(b) && b[j] >= '1' && b[j] <= '9':
		for ; j < len(b) && b[j] >= '0' && b[j] <= '9'; j++ {
			if nd < 19 {
				man = man*10 + uint64(b[j]-'0')
				nd++
			} else {
				exp10++
				trunc = trunc || b[j] != '0'
			}
		}
	default:
		return 0, 0, false, false, i
	}
	if j < len(b) && b[j] == '.' {
		k := j + 1
		for ; k < len(b) && b[k] >= '0' && b[k] <= '9'; k++ {
			switch {
			case nd == 19:
				trunc = trunc || b[k] != '0'
			case man == 0 && b[k] == '0': // a leading zero of 0.0…
				exp10--
			default:
				man = man*10 + uint64(b[k]-'0')
				nd++
				exp10--
			}
		}
		if k == j+1 {
			return 0, 0, false, false, i
		}
		j = k
	}
	if j < len(b) && (b[j] == 'e' || b[j] == 'E') {
		k := j + 1
		eneg := false
		if k < len(b) && (b[k] == '+' || b[k] == '-') {
			eneg = b[k] == '-'
			k++
		}
		e, start := 0, k
		for ; k < len(b) && b[k] >= '0' && b[k] <= '9'; k++ {
			if e < 10_000 {
				e = e*10 + int(b[k]-'0')
			}
		}
		if k == start {
			return 0, 0, false, false, i
		}
		if eneg {
			e = -e
		}
		exp10 += e
		j = k
	}
	if man == 0 {
		exp10 = 0
	}
	return man, exp10, neg, trunc, j
}

// route names the path convert took for one number. The first three
// decide the value; from routeRefused on the caller converts with strconv.
type route uint8

const (
	// routeClinger: man < 2^53 and |exp10| ≤ 22, so float64(man) and
	// 10^|exp10| are exact and one IEEE multiply or divide rounds the
	// product once, correctly (Clinger, "How to Read Floating Point
	// Numbers Accurately", PLDI 1990).
	routeClinger route = iota
	// routeEiselLemire: Eisel–Lemire decided from man times the high
	// 64 bits of 10^exp10.
	routeEiselLemire
	// routeWider: Eisel–Lemire decided after its wider approximation, man
	// times all 128 bits of 10^exp10.
	routeWider
	// routeRefused: Eisel–Lemire could not decide: a product too close to
	// a rounding boundary, or a result outside the normal float64 range.
	routeRefused
	// routeTruncated: more than 19 significant digits.
	routeTruncated
	// routeOutOfTable: exp10 outside [minPow10, maxPow10].
	routeOutOfTable
)

// convert returns man·10^exp10, negated when neg, rounded to the nearest
// float64 (ties to even) as strconv.ParseFloat rounds it, and the route it
// took; from routeRefused on it decides nothing and returns 0.
func convert(man uint64, exp10 int, neg, trunc bool) (float64, route) {
	switch {
	case trunc:
		return 0, routeTruncated
	case man < 1<<53 && -22 <= exp10 && exp10 <= 22:
		f := float64(man)
		if neg {
			f = -f
		}
		if exp10 < 0 {
			return f / exactPow10[-exp10], routeClinger
		}
		return f * exactPow10[exp10], routeClinger
	case exp10 < minPow10 || maxPow10 < exp10:
		return 0, routeOutOfTable
	}
	return eiselLemire(man, exp10, neg)
}

// exactPow10 holds the powers of ten a float64 represents exactly.
var exactPow10 = [...]float64{
	1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11,
	1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22,
}

// eiselLemire is strconv's eiselLemire64 (Lemire, "Number Parsing at a
// Gigabyte per Second", Software: Practice and Experience 51(8), 2021)
// over pow10Table: man·10^exp10 correctly rounded, or routeRefused. man is
// nonzero and exp10 within the table. The section names are those of
// https://nigeltao.github.io/blog/2020/eisel-lemire.html, as in strconv.
func eiselLemire(man uint64, exp10 int, neg bool) (float64, route) {
	// Normalization.
	clz := bits.LeadingZeros64(man)
	man <<= uint(clz)
	const float64ExponentBias = 1023
	retExp2 := uint64(217706*exp10>>16+64+float64ExponentBias) - uint64(clz)

	// Multiplication.
	pow := &pow10Table[exp10-minPow10]
	xHi, xLo := bits.Mul64(man, pow[1])

	// Wider Approximation.
	r := routeEiselLemire
	if xHi&0x1FF == 0x1FF && xLo+man < man {
		yHi, yLo := bits.Mul64(man, pow[0])
		mergedHi, mergedLo := xHi, xLo+yHi
		if mergedLo < xLo {
			mergedHi++
		}
		if mergedHi&0x1FF == 0x1FF && mergedLo+1 == 0 && yLo+man < man {
			return 0, routeRefused
		}
		xHi, xLo = mergedHi, mergedLo
		r = routeWider
	}

	// Shifting to 54 Bits.
	msb := xHi >> 63
	retMantissa := xHi >> (msb + 9)
	retExp2 -= 1 ^ msb

	// Half-way Ambiguity.
	if xLo == 0 && xHi&0x1FF == 0 && retMantissa&3 == 1 {
		return 0, routeRefused
	}

	// From 54 to 53 Bits.
	retMantissa += retMantissa & 1
	retMantissa >>= 1
	if retMantissa>>53 > 0 {
		retMantissa >>= 1
		retExp2++
	}
	// Subnormal, infinite or NaN: strconv's slow path decides, and reports
	// the range error. No product within today's table leaves the normal
	// range, but correctness must not rest on the table's bounds.
	if retExp2-1 >= 0x7FF-1 {
		return 0, routeRefused
	}
	retBits := retExp2<<52 | retMantissa&(1<<52-1)
	if neg {
		retBits |= 1 << 63
	}
	return math.Float64frombits(retBits), r
}

// minPow10 and maxPow10 bound pow10Table's exponents, both inclusive. The
// rows the gateway serves hold shortest-round-trip distances, whose
// exponents sit well inside; a number outside goes to strconv.
const (
	minPow10 = -64
	maxPow10 = 64
)

// pow10Table holds, for each q in [minPow10, maxPow10], 10^q as strconv's
// detailedPowersOfTen does: the 128-bit significand, rounded down, with
// its top bit set, as {low 64 bits, high 64 bits}.
var pow10Table = powersOfTen()

func powersOfTen() (t [maxPow10 - minPow10 + 1][2]uint64) {
	ten := big.NewInt(10)
	mask := new(big.Int).SetUint64(math.MaxUint64)
	for q := minPow10; q <= maxPow10; q++ {
		p := new(big.Int).Exp(ten, big.NewInt(int64(abs(q))), nil)
		if q < 0 {
			// 2^(127+L)/10^|q| lies in (2^127, 2^128) when 10^|q| has L bits.
			p.Quo(new(big.Int).Lsh(big.NewInt(1), uint(127+p.BitLen())), p)
		} else if s := p.BitLen() - 128; s > 0 {
			p.Rsh(p, uint(s))
		} else {
			p.Lsh(p, uint(-s))
		}
		t[q-minPow10] = [2]uint64{new(big.Int).And(p, mask).Uint64(), new(big.Int).Rsh(p, 64).Uint64()}
	}
	return t
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}
