package itree

import (
	"hash/fnv"
	"math"
	"math/big"
	"math/rand"
	"sort"
	"testing"

	"aqverify/internal/geometry"
)

// ratArrangement1D is the unfiltered reference for NewArrangement1D:
// every breakpoint computed as a rational, sorted and grouped with
// rational comparisons only.
func ratArrangement1D(t *testing.T, space *geometry.Space1D, inters []Intersection, seed int64) *Arrangement1D {
	t.Helper()
	root := space.Root().(geometry.Interval1D)
	type entry struct {
		t    *big.Rat
		in   Intersection
		prio uint64
	}
	var entries []entry
	for _, in := range inters {
		bp, ok := geometry.Breakpoint1D(in.H)
		if !ok || bp.Cmp(root.Lo) <= 0 || bp.Cmp(root.Hi) >= 0 {
			continue
		}
		entries = append(entries, entry{t: bp, in: in, prio: priorityOf(seed, in.H)})
	}
	sort.SliceStable(entries, func(a, b int) bool {
		if c := entries[a].t.Cmp(entries[b].t); c != 0 {
			return c < 0
		}
		return canonLess(entries[a].prio, entries[a].in, entries[b].prio, entries[b].in)
	})
	arr := &Arrangement1D{Seed: seed}
	for i := 0; i < len(entries); {
		j := i
		for j+1 < len(entries) && entries[j+1].t.Cmp(entries[i].t) == 0 {
			j++
		}
		g := &Group1D{T: entries[i].t}
		for k := i; k <= j; k++ {
			g.Members = append(g.Members, entries[k].in)
			g.prios = append(g.prios, entries[k].prio)
		}
		arr.Groups = append(arr.Groups, g)
		i = j + 1
	}
	return arr
}

// sameArrangement asserts two arrangements hold the same breakpoints
// with the same members in the same order.
func sameArrangement(t *testing.T, name string, got, want *Arrangement1D) {
	t.Helper()
	if len(got.Groups) != len(want.Groups) {
		t.Fatalf("%s: %d groups, want %d", name, len(got.Groups), len(want.Groups))
	}
	for g := range got.Groups {
		a, b := got.Groups[g], want.Groups[g]
		if a.T.Cmp(b.T) != 0 {
			t.Fatalf("%s: group %d at %v, want %v", name, g, a.T, b.T)
		}
		if len(a.Members) != len(b.Members) {
			t.Fatalf("%s: group %d has %d members, want %d", name, g, len(a.Members), len(b.Members))
		}
		for m := range a.Members {
			x, y := a.Members[m], b.Members[m]
			if x.I != y.I || x.J != y.J || string(x.H.Encode(nil)) != string(y.H.Encode(nil)) || a.prios[m] != b.prios[m] {
				t.Fatalf("%s: group %d member %d is %+v, want %+v", name, g, m, x, y)
			}
		}
	}
}

// hyper returns the intersection with hyperplane c·x + b and a pair
// index unique within one test case.
func hyper(k int, c, b float64) Intersection {
	return Intersection{I: k, J: k + 1, H: geometry.Hyperplane{C: []float64{c}, B: b}}
}

// nearTieCases returns adversarial intersection lists over the domain
// [lo, hi]: equal breakpoints from different (B, C) pairs, breakpoints
// one ulp apart, float-equal breakpoints that differ exactly, huge,
// tiny and subnormal coefficients, and breakpoints on, next to and
// rounding onto the domain edges and the given interior cuts.
func nearTieCases(lo, hi float64, cuts []float64) map[string][]Intersection {
	cases := map[string][]Intersection{}
	var k int
	add := func(name string, c, b float64) {
		cases[name] = append(cases[name], hyper(k, c, b))
		k += 2
	}
	mid := (lo + hi) / 2
	third := lo + (hi-lo)/3
	// The same breakpoint from scaled (B, C) pairs, with both signs of C.
	for _, s := range []float64{1, 2, 4, 0.5, 3, -1, -6, 1e-300, 1e300} {
		add("equal-scaled", 2*s, -2*s*mid)
		add("equal-scaled", s, -s*third)
	}
	// Breakpoints one ulp apart around two points.
	for _, p := range []float64{mid, third} {
		for _, q := range []float64{math.Nextafter(p, math.Inf(-1)), p, math.Nextafter(p, math.Inf(1))} {
			add("ulp-apart", 1, -q)
			add("ulp-apart", -2, 2*q)
		}
	}
	// Float-equal, exactly different: -1/3 is not a float, so 3x + 1
	// and x + fl(1/3) round to the same float breakpoint.
	add("float-tie", 3, 1)
	add("float-tie", 1, 1.0/3)
	add("float-tie", -3, -1)
	add("float-tie", 7, 7.0/3)
	add("float-tie", 1, math.Nextafter(1.0/3, 0))
	// Huge, tiny and subnormal coefficients.
	add("extreme", 1e300, -1e300*mid)
	add("extreme", 1e-300, -1e-300*mid)
	add("extreme", 3e-300, -1e-300)
	add("extreme", 5e-324, -5e-324)
	add("extreme", 1.5e-323, -5e-324)
	add("extreme", 3, -1)
	add("extreme", 1e308, -1e308)
	add("extreme", -1e-310, 1e-310*third)
	add("extreme", 4e-320, -8e-320)
	// Breakpoints exactly on, one ulp off, and rounding onto the edges
	// and cuts.
	for _, e := range append([]float64{lo, hi}, cuts...) {
		add("edges", 1, -e)
		add("edges", -4, 4*e)
		add("edges", 1, -math.Nextafter(e, math.Inf(1)))
		add("edges", 1, -math.Nextafter(e, math.Inf(-1)))
		add("edges", 3, -3*e)                         // 3e rounds: exact breakpoint just off e
		add("edges", 3, -math.Nextafter(3*e, 0))      // just inside or outside
		add("edges", 10, -math.Nextafter(10*e, 1e30)) // within an ulp of e after division
	}
	// Degenerate and non-finite hyperplanes are skipped.
	add("degenerate", 0, 1)
	add("degenerate", math.Inf(1), 1)
	add("degenerate", 1, math.NaN())
	add("degenerate", 2, -mid)
	// Everything at once, so unrelated near-ties interleave.
	var all []Intersection
	for _, name := range []string{"equal-scaled", "ulp-apart", "float-tie", "extreme", "edges", "degenerate"} {
		all = append(all, cases[name]...)
	}
	cases["all"] = all
	return cases
}

// TestArrangementFilterMatchesRat holds the float-first arrangement to
// the rational-only reference on adversarial near-ties, on a whole
// domain and on the two sub-boxes of a shard cut, and the tree built
// from it to the insert-path tree.
func TestArrangementFilterMatchesRat(t *testing.T) {
	const lo, hi, cut = -1.0, 2.0, 0.5
	boxes := [][2]float64{{lo, hi}, {lo, cut}, {cut, hi}}
	for _, bx := range boxes {
		dom, err := geometry.NewBox([]float64{bx[0]}, []float64{bx[1]})
		if err != nil {
			t.Fatal(err)
		}
		space, err := geometry.NewSpace1D(dom)
		if err != nil {
			t.Fatal(err)
		}
		for name, inters := range nearTieCases(bx[0], bx[1], []float64{cut}) {
			for _, seed := range []int64{0, 1, 99} {
				got, err := NewArrangement1D(space, inters, seed)
				if err != nil {
					t.Fatal(err)
				}
				sameArrangement(t, name, got, ratArrangement1D(t, space, inters, seed))
				direct, err := BuildCanonical1D(space, got)
				if err != nil {
					t.Fatal(err)
				}
				viaInsert, err := Build(space, inters, BuildOptions{Shuffle: true, Seed: seed})
				if err != nil {
					t.Fatal(err)
				}
				sameTree(t, viaInsert, direct)
			}
		}
	}
}

// TestArrangementFilterRandom compares the two on random dense
// arrangements: many lines through shared points plus float-rounded
// near-copies of them.
func TestArrangementFilterRandom(t *testing.T) {
	dom, err := geometry.NewBox([]float64{-1}, []float64{2})
	if err != nil {
		t.Fatal(err)
	}
	space, err := geometry.NewSpace1D(dom)
	if err != nil {
		t.Fatal(err)
	}
	for trial := 0; trial < 20; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		var inters []Intersection
		for k := 0; k < 300; k++ {
			p := float64(rng.Intn(9))/3 - 1 // often not a float: k/3
			c := float64(rng.Intn(13) - 6)
			if rng.Intn(2) == 0 {
				c = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
			}
			b := -c * p
			if rng.Intn(4) == 0 {
				b = math.Nextafter(b, math.Inf(rng.Intn(2)*2-1))
			}
			inters = append(inters, hyper(2*k, c, b))
		}
		inters = append(inters, randomLinesInters(t, dom, int64(trial))...)
		got, err := NewArrangement1D(space, inters, int64(trial))
		if err != nil {
			t.Fatal(err)
		}
		sameArrangement(t, "random", got, ratArrangement1D(t, space, inters, int64(trial)))
	}
}

func randomLinesInters(t *testing.T, dom geometry.Box, seed int64) []Intersection {
	t.Helper()
	inters, err := Pairs1D(randomLines(40, seed), dom)
	if err != nil {
		t.Fatal(err)
	}
	return inters
}

// TestPriorityMatchesFNV pins the inline priority hash to hash/fnv's
// FNV-64a over the same bytes.
func TestPriorityMatchesFNV(t *testing.T) {
	hs := []geometry.Hyperplane{
		{C: []float64{1}, B: -0.5},
		{C: []float64{-3e-300}, B: 7},
		{C: []float64{1, 2, 3, 4, 5, 6}, B: 1}, // wider than the stack buffer
	}
	for _, seed := range []int64{0, 1, -42} {
		for _, h := range hs {
			f := fnv.New64a()
			var s [8]byte
			for i := range s {
				s[i] = byte(uint64(seed) >> (56 - 8*i))
			}
			f.Write(s[:])
			f.Write(h.Encode(nil))
			if got, want := priorityOf(seed, h), f.Sum64(); got != want {
				t.Fatalf("priorityOf(%d, %+v) = %x, want %x", seed, h, got, want)
			}
		}
	}
}
