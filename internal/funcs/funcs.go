// Package funcs implements the paper's function view of an outsourced
// table: a utility-function template interprets every record as a linear
// math function of the query variables, and the pairwise differences of
// those functions are the hyperplanes that partition the query domain into
// sortable subdomains.
package funcs

import (
	"cmp"
	"fmt"
	"math"
	"math/big"
	"slices"

	"aqverify/internal/geometry"
	"aqverify/internal/linalg"
	"aqverify/internal/record"
)

// Linear is the function f(X) = Coef·X + Bias interpreted from one record.
// Index is the record's position in the table (the identity used
// throughout the verification structures); RecordID is the table key.
type Linear struct {
	Index    int
	RecordID uint64
	Coef     []float64
	Bias     float64
}

// Eval returns f(X).
func (f Linear) Eval(x geometry.Point) float64 {
	return linalg.Dot(f.Coef, []float64(x)) + f.Bias
}

// EvalRat returns f(X) in exact rational arithmetic for a rational input,
// used when sorting functions at a subdomain witness must be exact.
func (f Linear) EvalRat(x *big.Rat) *big.Rat {
	if len(f.Coef) != 1 {
		panic(fmt.Sprintf("funcs: EvalRat needs a univariate function, got %d variables", len(f.Coef)))
	}
	c := new(big.Rat).SetFloat64(f.Coef[0])
	b := new(big.Rat).SetFloat64(f.Bias)
	out := new(big.Rat).Mul(c, x)
	return out.Add(out, b)
}

// RatPoint is an exact univariate evaluation point together with its
// float64 rounding, converted once so that many filtered comparisons at
// the point (CmpAt) share the conversion.
type RatPoint struct {
	// R is the exact point.
	R *big.Rat
	// f is R rounded to float64, or NaN where that rounding's error is
	// not relative (R is inexact in the subnormal range or beyond the
	// float range), which sends every comparison to the exact path.
	f float64
}

// NewRatPoint pairs the exact point r with its float64 rounding.
func NewRatPoint(r *big.Rat) RatPoint {
	f, exact := r.Float64()
	if !exact && !(math.Abs(f) >= 0x1p-1022 && !math.IsInf(f, 0)) {
		f = math.NaN()
	}
	return RatPoint{R: r, f: f}
}

// Float rounding-error filter for CmpAt. With u = 2^-53 and x the
// point's float rounding (|x - r| <= u·|r| by NewRatPoint's guard),
// the float score s = fl(fl(c·x) + b) of c·r + b is off by at most
// 3.01u·(|fl(c·x)| + |b|) + 2^-1073 (two rounded operations, the
// point's conversion, and at most one underflow). filterEps = 8u
// covers both scores' errors plus the rounding of the difference and
// of the bound itself; filterTiny covers the underflow terms. A float
// difference beyond the bound therefore has the sign of the exact one.
const (
	filterEps  = 0x1p-50
	filterTiny = 0x1p-1069
)

// CmpAt returns the sign of f(p) - g(p) for univariate functions,
// computed exactly: the float scores decide when their difference
// exceeds the forward-error bound, and exact rational evaluation
// decides the rest (near-ties, non-finite intermediates).
func CmpAt(f, g Linear, p RatPoint) int {
	if len(f.Coef) == 1 && len(g.Coef) == 1 {
		pf, pg := f.Coef[0]*p.f, g.Coef[0]*p.f
		sf, sg := pf+f.Bias, pg+g.Bias
		if !math.IsInf(sf, 0) && !math.IsNaN(sf) && !math.IsInf(sg, 0) && !math.IsNaN(sg) {
			bound := filterEps*(math.Abs(pf)+math.Abs(f.Bias)+math.Abs(pg)+math.Abs(g.Bias)) + filterTiny
			if d := sf - sg; d > bound {
				return 1
			} else if -d > bound {
				return -1
			}
		}
	}
	return f.EvalRat(p.R).Cmp(g.EvalRat(p.R))
}

// Dim returns the number of query variables.
func (f Linear) Dim() int { return len(f.Coef) }

// Diff returns the hyperplane f - g = 0, whose sign partitions the domain
// into the regions where f scores above or below g.
func Diff(f, g Linear) geometry.Hyperplane {
	return geometry.Hyperplane{
		C: linalg.Sub(f.Coef, g.Coef),
		B: f.Bias - g.Bias,
	}
}

// Template is a utility-function template (paper §2.1): it selects which
// record attributes become function coefficients and optionally a bias
// attribute. With the template
//
//	Score(w1,w2,w3) = GPA*w1 + Award*w2 + Paper*w3
//
// CoefAttrs is [0,1,2] (indices into Record.Attrs) and BiasAttr is -1.
type Template struct {
	// Name documents the template (it is shared out of band, like the
	// schema).
	Name string
	// CoefAttrs lists, per query variable, the record attribute index
	// providing that variable's coefficient.
	CoefAttrs []int
	// BiasAttr is the record attribute index providing the constant
	// term, or -1 for a zero bias.
	BiasAttr int
}

// ScalarProduct returns the standard template with one query variable per
// schema column and no bias: f_i(X) = r_i · X.
func ScalarProduct(arity int) Template {
	idx := make([]int, arity)
	for i := range idx {
		idx[i] = i
	}
	return Template{Name: "scalar-product", CoefAttrs: idx, BiasAttr: -1}
}

// AffineLine returns the univariate template f_i(x) = slope*x + intercept
// where slope and intercept name record attribute indices. This is the
// configuration of the paper's evaluation (linear ranking functions).
func AffineLine(slopeAttr, interceptAttr int) Template {
	return Template{Name: "affine-line", CoefAttrs: []int{slopeAttr}, BiasAttr: interceptAttr}
}

// Dim returns the number of query variables the template produces.
func (t Template) Dim() int { return len(t.CoefAttrs) }

// Validate checks the template against a schema arity.
func (t Template) Validate(arity int) error {
	if len(t.CoefAttrs) == 0 {
		return fmt.Errorf("funcs: template %q has no variables", t.Name)
	}
	for v, a := range t.CoefAttrs {
		if a < 0 || a >= arity {
			return fmt.Errorf("funcs: template %q variable %d uses attribute %d, schema arity %d",
				t.Name, v, a, arity)
		}
	}
	if t.BiasAttr != -1 && (t.BiasAttr < 0 || t.BiasAttr >= arity) {
		return fmt.Errorf("funcs: template %q bias uses attribute %d, schema arity %d",
			t.Name, t.BiasAttr, arity)
	}
	return nil
}

// Interpret converts one record into its math function under the template.
func (t Template) Interpret(index int, r record.Record) Linear {
	coef := make([]float64, len(t.CoefAttrs))
	for v, a := range t.CoefAttrs {
		coef[v] = r.Attrs[a]
	}
	var bias float64
	if t.BiasAttr >= 0 {
		bias = r.Attrs[t.BiasAttr]
	}
	return Linear{Index: index, RecordID: r.ID, Coef: coef, Bias: bias}
}

// InterpretTable converts every record of a table, in table order.
func (t Template) InterpretTable(tbl record.Table) ([]Linear, error) {
	if err := t.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	out := make([]Linear, tbl.Len())
	for i, r := range tbl.Records {
		out[i] = t.Interpret(i, r)
	}
	return out, nil
}

// SortAt returns the permutation of function indices sorted ascending by
// score at x, with ties broken by function index so the order is total
// and deterministic. perm[pos] is the index (into fs) of the function at
// sorted position pos.
func SortAt(fs []Linear, x geometry.Point) []int {
	scores := make([]float64, len(fs))
	for i, f := range fs {
		scores[i] = f.Eval(x)
	}
	perm := make([]int, len(fs))
	for i := range perm {
		perm[i] = i
	}
	sortPermByScore(perm, scores)
	return perm
}

// SortAtRat is SortAt with exact evaluation for univariate functions,
// used at subdomain witnesses during construction where float rounding
// near a breakpoint could misorder nearly-equal scores. Comparisons go
// through CmpAt, so only near-ties pay for rational arithmetic.
func SortAtRat(fs []Linear, x *big.Rat) []int {
	p := NewRatPoint(x)
	perm := make([]int, len(fs))
	for i := range perm {
		perm[i] = i
	}
	slices.SortFunc(perm, func(a, b int) int {
		if c := CmpAt(fs[a], fs[b], p); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	return perm
}
