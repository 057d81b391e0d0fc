package sweep

import (
	"math"
	"math/big"
	"testing"

	"aqverify/internal/funcs"
)

// TestRankLessMatchesExact holds the filtered rankLess to the exact
// comparison it replaced — EvalRat(...).Cmp, ties by function index —
// on near-ties: lines concurrent at the witness (equal scores), scores
// an ulp apart, and huge, tiny and subnormal coefficients, at float and
// non-float witnesses.
func TestRankLessMatchesExact(t *testing.T) {
	witnesses := []*big.Rat{
		big.NewRat(1, 3), big.NewRat(-7, 10), ratOf(0.5), ratOf(math.Nextafter(0.5, 1)),
		big.NewRat(0, 1), ratOf(1e-310), new(big.Rat).Quo(ratOf(5e-324), big.NewRat(7, 1)),
		ratOf(1e300),
	}
	for _, w := range witnesses {
		wf, _ := w.Float64()
		var fs []funcs.Linear
		add := func(c, b float64) {
			if math.IsInf(b, 0) || math.IsNaN(b) {
				return
			}
			fs = append(fs, funcs.Linear{Index: len(fs), Coef: []float64{c}, Bias: b})
		}
		for _, c := range []float64{1, 2, -3, 0, 1e-300, 1e300, 5e-324, -1e-310} {
			b := 0.5 - c*wf // through (w, 0.5) when the product is exact
			add(c, b)
			add(c, math.Nextafter(b, math.Inf(1)))
			add(math.Nextafter(c, math.Inf(-1)), b)
		}
		add(3, 1)
		add(1, 1.0/3+1)
		add(1, 1.0/3+1) // an exact duplicate: the index decides
		add(1e300, 0)   // beats 1e-30 at the non-float tiny witness, which rounds to 0
		add(0, 1e-30)
		p := funcs.NewRatPoint(w)
		for _, f := range fs {
			for _, g := range fs {
				want := f.Index < g.Index
				if c := f.EvalRat(w).Cmp(g.EvalRat(w)); c != 0 {
					want = c < 0
				}
				if got := rankLess(f, g, p); got != want {
					t.Fatalf("at %v: rankLess(%+v, %+v) = %v, want %v", w, f, g, got, want)
				}
			}
		}
	}
}
