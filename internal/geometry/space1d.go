package geometry

import (
	"fmt"
	"math"
	"math/big"
)

// Space1D is the exact-arithmetic space for univariate ranking functions.
// Regions are open/half-open intervals whose endpoints are big.Rat
// breakpoints (every breakpoint -B/C of float64-coefficient lines is
// exactly representable as a rational), so subdomain boundaries never
// suffer float drift: two lines either cross inside a region or they do
// not, with no epsilon ambiguity.
type Space1D struct {
	domain Box
	lo, hi *big.Rat
}

// Interval1D is Space1D's Region implementation. Endpoints are always
// finite because the root region is the owner-specified bounded domain.
// The strictness flags record whether each endpoint is excluded:
// loStrict means x > lo, otherwise x >= lo (and symmetrically for hi).
type Interval1D struct {
	Lo, Hi             *big.Rat
	LoStrict, HiStrict bool
}

// NewSpace1D builds the exact 1-D space over the given domain box, which
// must be one-dimensional.
func NewSpace1D(domain Box) (*Space1D, error) {
	if domain.Dim() != 1 {
		return nil, fmt.Errorf("geometry: Space1D needs a 1-D domain, got %d-D", domain.Dim())
	}
	lo := new(big.Rat).SetFloat64(domain.Lo[0])
	hi := new(big.Rat).SetFloat64(domain.Hi[0])
	if lo == nil || hi == nil {
		return nil, fmt.Errorf("geometry: non-finite domain bounds")
	}
	return &Space1D{domain: domain, lo: lo, hi: hi}, nil
}

// Dim implements Space.
func (s *Space1D) Dim() int { return 1 }

// Root implements Space: the whole domain interval, closed on both ends.
func (s *Space1D) Root() Region {
	return Interval1D{Lo: s.lo, Hi: s.hi}
}

// Breakpoint1D returns the exact solution of C[0]*x + B = 0 as a rational,
// or ok=false when the hyperplane is degenerate (parallel functions).
func Breakpoint1D(h Hyperplane) (*big.Rat, bool) {
	if len(h.C) != 1 || h.C[0] == 0 {
		return nil, false
	}
	c := new(big.Rat).SetFloat64(h.C[0])
	b := new(big.Rat).SetFloat64(h.B)
	if c == nil || b == nil {
		return nil, false
	}
	// x = -B/C.
	t := new(big.Rat).Quo(b.Neg(b), c)
	return t, true
}

// BreakpointFloat1D returns the float64 nearest the exact breakpoint
// -B/C, with ok=false exactly when Breakpoint1D's is. IEEE-754
// division is correctly rounded and negation is exact, and rounding to
// nearest is monotone, so two breakpoints whose float values differ
// are ordered the same way exactly, and a float value strictly above
// (below) a float64 bound means the exact breakpoint is too. Only equal
// float values leave the exact order undecided; callers fall back to
// Breakpoint1D for those. The result may round to ±Inf or ±0 at the
// extremes of the float range, which keeps the ordering property.
func BreakpointFloat1D(h Hyperplane) (float64, bool) {
	if len(h.C) != 1 || h.C[0] == 0 || !finite(h.C[0]) || !finite(h.B) {
		return 0, false
	}
	return -h.B / h.C[0], true
}

// finite reports whether v is neither infinite nor NaN.
func finite(v float64) bool { return !math.IsInf(v, 0) && !math.IsNaN(v) }

// Partition implements Space. The hyperplane c*x + b splits the interval
// iff its breakpoint t = -b/c lies strictly inside. "Above" is the side
// where c*x + b >= 0: x >= t when c > 0, x <= t when c < 0.
func (s *Space1D) Partition(r Region, h Hyperplane) (Region, Region, bool) {
	iv := r.(Interval1D)
	t, ok := Breakpoint1D(h)
	if !ok {
		return nil, nil, false
	}
	if t.Cmp(iv.Lo) <= 0 || t.Cmp(iv.Hi) >= 0 {
		return nil, nil, false
	}
	// Interval [lo, t) or (lo, t] etc: above gets the closed endpoint at t.
	if h.C[0] > 0 {
		above := Interval1D{Lo: t, Hi: iv.Hi, LoStrict: false, HiStrict: iv.HiStrict}
		below := Interval1D{Lo: iv.Lo, Hi: t, LoStrict: iv.LoStrict, HiStrict: true}
		return above, below, true
	}
	above := Interval1D{Lo: iv.Lo, Hi: t, LoStrict: iv.LoStrict, HiStrict: false}
	below := Interval1D{Lo: t, Hi: iv.Hi, LoStrict: true, HiStrict: iv.HiStrict}
	return above, below, true
}

// Witness implements Space: the interval midpoint as a float64 point.
func (s *Space1D) Witness(r Region) Point {
	m := s.WitnessRat(r)
	f, _ := m.Float64()
	return Point{f}
}

// WitnessRat returns the exact rational midpoint of the interval, for
// callers that sort record functions with exact arithmetic.
func (s *Space1D) WitnessRat(r Region) *big.Rat {
	iv := r.(Interval1D)
	m := new(big.Rat).Add(iv.Lo, iv.Hi)
	return m.Quo(m, big.NewRat(2, 1))
}

// Halfspaces implements Space: the minimal two-constraint description
// x >= lo (or > lo) and x <= hi (or < hi), expressed as halfspaces so the
// multi-signature verification object stays small.
func (s *Space1D) Halfspaces(r Region) []Halfspace {
	iv := r.(Interval1D)
	lo, _ := iv.Lo.Float64()
	hi, _ := iv.Hi.Float64()
	return []Halfspace{
		{H: Hyperplane{C: []float64{1}, B: -lo}, Strict: iv.LoStrict},
		{H: Hyperplane{C: []float64{-1}, B: hi}, Strict: iv.HiStrict},
	}
}

// Contains implements Space with an exact rational comparison (x converts
// to big.Rat losslessly).
func (s *Space1D) Contains(r Region, x Point) bool {
	if len(x) != 1 {
		return false
	}
	iv := r.(Interval1D)
	xr := new(big.Rat).SetFloat64(x[0])
	if xr == nil {
		return false
	}
	cl := xr.Cmp(iv.Lo)
	ch := xr.Cmp(iv.Hi)
	if cl < 0 || ch > 0 {
		return false
	}
	if cl == 0 && iv.LoStrict {
		return false
	}
	if ch == 0 && iv.HiStrict {
		return false
	}
	return true
}
