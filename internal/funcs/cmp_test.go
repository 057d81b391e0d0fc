package funcs

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"
)

// exactCmp is the unfiltered reference CmpAt replaces.
func exactCmp(f, g Linear, x *big.Rat) int { return f.EvalRat(x).Cmp(g.EvalRat(x)) }

func line(c, b float64) Linear { return Linear{Coef: []float64{c}, Bias: b} }

// nearTiePoints returns exact witnesses that stress the filter: floats,
// rationals that are not floats, points an ulp apart, tiny and
// subnormal points (exact and inexact), and points beyond the float
// range.
func nearTiePoints() []*big.Rat {
	third := big.NewRat(1, 3)
	ulp := new(big.Rat).SetFloat64(math.Nextafter(0.5, 1))
	tinyInexact := new(big.Rat).Quo(new(big.Rat).SetFloat64(5e-324), big.NewRat(3, 1))
	huge := new(big.Rat).Mul(new(big.Rat).SetFloat64(math.MaxFloat64), big.NewRat(3, 1))
	return []*big.Rat{
		big.NewRat(1, 2), third, new(big.Rat).Neg(third), ulp, big.NewRat(0, 1),
		new(big.Rat).SetFloat64(1e-310), tinyInexact, new(big.Rat).SetFloat64(1e-300),
		new(big.Rat).SetFloat64(1e300), huge,
	}
}

// nearTiePairs returns function pairs that tie or nearly tie at x:
// equal scores from different lines through (x, y), scores one ulp
// apart, and huge, tiny and subnormal coefficients.
func nearTiePairs(x *big.Rat) [][2]Linear {
	xf, _ := x.Float64()
	var out [][2]Linear
	add := func(f, g Linear) {
		for _, v := range []float64{f.Coef[0], f.Bias, g.Coef[0], g.Bias} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				return // record functions have finite coefficients
			}
		}
		out = append(out, [2]Linear{f, g}, [2]Linear{g, f})
	}
	// Lines through (x, 0.25) where that is exactly representable.
	for _, c := range []float64{1, 2, -3, 1e-300, 1e300, 5e-324} {
		b := 0.25 - c*xf
		add(line(c, b), line(2*c, 0.25-2*c*xf))
		add(line(c, b), line(c, math.Nextafter(b, math.Inf(1))))
		add(line(c, b), line(math.Nextafter(c, 0), b))
	}
	add(line(3, 1), line(1, 1.0/3+1))
	add(line(3, -1), line(0, 0))
	add(line(1, 0), line(1, 0))
	add(line(0, 5e-324), line(0, 0))
	add(line(1e308, -1e308), line(-1e308, 1e308))
	add(line(math.MaxFloat64, 0), line(math.MaxFloat64, -math.MaxFloat64))
	// A huge slope amplifies the rounding of a non-float tiny x: at
	// x = 2^-1074/3, which rounds to 0, 1e300·x exceeds 1e-30.
	add(line(1e300, 0), line(0, 1e-30))
	return out
}

// TestCmpAtMatchesExact holds the filtered comparison to exact
// rational evaluation on adversarial near-ties.
func TestCmpAtMatchesExact(t *testing.T) {
	for _, x := range nearTiePoints() {
		p := NewRatPoint(x)
		for _, pr := range nearTiePairs(x) {
			if got, want := CmpAt(pr[0], pr[1], p), exactCmp(pr[0], pr[1], x); got != want {
				t.Fatalf("at %v: CmpAt(%+v, %+v) = %d, exact %d", x, pr[0], pr[1], got, want)
			}
		}
	}
}

// TestSortAtRatMatchesExactSort compares SortAtRat with a sort that
// uses exact comparisons only, on dense pencils of lines through
// shared points evaluated at (and next to) those points.
func TestSortAtRatMatchesExactSort(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 30; trial++ {
		fs := make([]Linear, 60)
		for i := range fs {
			p := float64(rng.Intn(5)) / 3
			c := float64(rng.Intn(9) - 4)
			if rng.Intn(3) == 0 {
				c = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(30)-15))
			}
			fs[i] = Linear{Index: i, Coef: []float64{c}, Bias: 1 - c*p}
		}
		x := big.NewRat(int64(rng.Intn(5)), 3)
		if trial%2 == 1 {
			x.Add(x, big.NewRat(1, 1<<40))
		}
		want := make([]int, len(fs))
		for i := range want {
			want[i] = i
		}
		slices.SortFunc(want, func(a, b int) int {
			if c := exactCmp(fs[a], fs[b], x); c != 0 {
				return c
			}
			return a - b
		})
		if got := SortAtRat(fs, x); !slices.Equal(got, want) {
			t.Fatalf("trial %d at %v: %v, want %v", trial, x, got, want)
		}
	}
}

// FuzzCmpAt checks the filtered comparison against exact evaluation at
// x = wf + num/(den·2^60), a float nudged by a small rational.
func FuzzCmpAt(f *testing.F) {
	for _, x := range nearTiePoints() {
		xf, _ := x.Float64()
		for _, pr := range nearTiePairs(x) {
			f.Add(pr[0].Coef[0], pr[0].Bias, pr[1].Coef[0], pr[1].Bias, xf, int64(0), int64(1))
		}
	}
	f.Add(3.0, 1.0, 1.0, 1.0/3+1, 0.0, int64(-1), int64(3)) // x = -1/(3·2^60), not a float
	f.Add(1.0, 0.0, 2.0, -0.5, 0.5, int64(1), int64(1))
	f.Fuzz(func(t *testing.T, cf, bf, cg, bg, wf float64, num, den int64) {
		for _, v := range []float64{cf, bf, cg, bg, wf} {
			if math.IsInf(v, 0) || math.IsNaN(v) {
				t.Skip()
			}
		}
		if den == 0 {
			t.Skip()
		}
		x := new(big.Rat).SetFloat64(wf)
		x.Add(x, new(big.Rat).SetFrac(big.NewInt(num), new(big.Int).Lsh(big.NewInt(den), 60)))
		fl, gl := line(cf, bf), line(cg, bg)
		if got, want := CmpAt(fl, gl, NewRatPoint(x)), exactCmp(fl, gl, x); got != want {
			t.Fatalf("at %v: CmpAt(%v·x+%v, %v·x+%v) = %d, exact %d", x, cf, bf, cg, bg, got, want)
		}
	})
}
