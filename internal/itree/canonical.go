package itree

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math/big"
	"slices"
	"sort"

	"aqverify/internal/geometry"
)

// Canonical insertion order.
//
// Build used to shuffle the *index sequence* of the intersection list,
// which balances the tree but makes its shape a function of how many
// intersections happen to be enumerated — add or remove one pair and
// every later insertion moves. The mutation plane needs the opposite: a
// tree whose shape is a pure function of the intersection *set*, so
// that an incremental apply and a full rebuild of the mutated table
// agree byte for byte.
//
// The canonical order achieves both. Every intersection gets a
// pseudorandom priority keyed by its content (a seeded FNV-64a of the
// hyperplane's canonical encoding), and insertion proceeds in ascending
// (priority, hyperplane bytes, I, J) order. Inserting keys into a
// leaf-split BST in ascending priority order yields the treap over
// (key, priority) — and a treap with distinct priorities is *unique*
// given its key set. The tree is therefore still expected-logarithmic
// (priorities are uniform for non-adversarial inputs) and now
// content-determined: BuildCanonical1D constructs the identical tree
// directly from a sorted breakpoint arrangement in O(S). A full 1-D
// build does so from a fresh arrangement, and incremental
// re-outsourcing from one merged with a mutation's pairs.
//
// The priority hash is deliberately non-cryptographic: it only balances
// the tree, never authenticates anything, and a crafted table can at
// worst degrade depth (exactly as it could degrade the old seeded
// shuffle), not soundness.

// priorityOf returns the canonical priority of one intersection: a
// seeded FNV-64a over the hyperplane's canonical byte encoding. It
// depends only on the hyperplane content — not on the pair indexes —
// so a surviving intersection keeps its priority when record indexes
// are remapped by a mutation. The hash is computed inline over a stack
// buffer (the value equals hash/fnv's New64a over the same bytes), so
// the arrangement pays no allocation per intersection for it.
func priorityOf(seed int64, h geometry.Hyperplane) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	var buf [48]byte
	binary.BigEndian.PutUint64(buf[:8], uint64(seed))
	p := uint64(offset64)
	for _, c := range h.Encode(buf[:8]) {
		p ^= uint64(c)
		p *= prime64
	}
	return p
}

// canonLess is the canonical strict total order on intersections:
// ascending priority, ties broken by the hyperplane's canonical bytes,
// then by (I, J). Two intersections compare equal only when they are
// the same pair of the same hyperplane. Distinct breakpoints always
// have distinct hyperplane bytes, so the induced treap shape never
// depends on the (I, J) tail — which is what keeps the shape stable
// under index remapping.
func canonLess(pa uint64, a Intersection, pb uint64, b Intersection) bool {
	if pa != pb {
		return pa < pb
	}
	ea, eb := a.H.Encode(nil), b.H.Encode(nil)
	if c := compareBytes(ea, eb); c != 0 {
		return c < 0
	}
	if a.I != b.I {
		return a.I < b.I
	}
	return a.J < b.J
}

func compareBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return int(a[i]) - int(b[i])
		}
	}
	return len(a) - len(b)
}

// canonicalOrder returns the indexes of inters sorted by the canonical
// order under the given seed — the insertion sequence Build uses when
// BuildOptions.Shuffle is set.
func canonicalOrder(inters []Intersection, seed int64) []int {
	prios := make([]uint64, len(inters))
	for i := range inters {
		prios[i] = priorityOf(seed, inters[i].H)
	}
	order := make([]int, len(inters))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool {
		ia, ib := order[a], order[b]
		return canonLess(prios[ia], inters[ia], prios[ib], inters[ib])
	})
	return order
}

// Group1D is one exact breakpoint of a 1-D arrangement: every
// enumerated intersection whose exact rational breakpoint equals T, in
// canonical order. Members[0] is the representative — the member a
// canonical-order insertion would insert first, whose hyperplane splits
// the leaf and therefore determines the internal node's hyperplane
// bytes and the closed side of the boundary.
type Group1D struct {
	// T is the exact breakpoint, strictly inside the domain.
	T *big.Rat
	// Members lists the group's intersections in canonical order.
	Members []Intersection
	// prios caches each member's canonical priority, index-aligned
	// with Members.
	prios []uint64
}

// Rep returns the group's representative intersection.
func (g *Group1D) Rep() Intersection { return g.Members[0] }

// Arrangement1D is the exact-filtered, breakpoint-sorted view of a 1-D
// intersection enumeration: one group per distinct in-domain breakpoint,
// ascending. It is the content the canonical I-tree is a pure function
// of, and the state the mutation plane keeps between epochs — merging a
// few dirty pairs into an arrangement is linear, where re-enumerating
// them is quadratic.
type Arrangement1D struct {
	// Seed is the canonical-priority seed the arrangement's tree shape
	// is keyed by.
	Seed int64
	// Groups lists the distinct breakpoints in ascending order.
	Groups []*Group1D
}

// NumBreakpoints returns the distinct in-domain breakpoint count (the
// internal-node count of the canonical tree).
func (a *Arrangement1D) NumBreakpoints() int { return len(a.Groups) }

// NewArrangement1D builds the arrangement of an enumerated intersection
// list over the space's domain: members whose exact breakpoint lies
// strictly inside (lo, hi) are grouped by breakpoint and canonically
// ordered; degenerate, on-edge and out-of-domain entries — the ones the
// exact insertion checks would prune — are dropped. The input may carry
// the widened-margin superset Pairs1D enumerates.
//
// Every comparison is exact, but filtered: breakpoints are ordered and
// tested against the domain edges by their correctly rounded float
// values (see geometry.BreakpointFloat1D), and the exact rational is
// computed only for entries whose float value ties another's or a
// domain edge — plus one per group, its T.
func NewArrangement1D(space *geometry.Space1D, inters []Intersection, seed int64) (*Arrangement1D, error) {
	root, ok := space.Root().(geometry.Interval1D)
	if !ok {
		return nil, fmt.Errorf("itree: 1-D space has a non-interval root region")
	}
	// The domain edges are float64 values, so these conversions are exact.
	lo, _ := root.Lo.Float64()
	hi, _ := root.Hi.Float64()
	type entry struct {
		f    float64  // the breakpoint rounded to float64
		t    *big.Rat // the exact breakpoint; nil until needed
		in   Intersection
		prio uint64
	}
	exact := func(e *entry) *big.Rat {
		if e.t == nil {
			e.t, _ = geometry.Breakpoint1D(e.in.H)
		}
		return e.t
	}
	entries := make([]entry, 0, len(inters))
	for _, in := range inters {
		f, ok := geometry.BreakpointFloat1D(in.H)
		if !ok {
			continue // degenerate: parallel functions
		}
		if f < lo || f > hi {
			continue // outside the domain: Partition would prune
		}
		e := entry{f: f, in: in}
		if f == lo || f == hi {
			// Rounds onto an edge: only the exact value can tell
			// whether it lies inside.
			if t := exact(&e); t.Cmp(root.Lo) <= 0 || t.Cmp(root.Hi) >= 0 {
				continue // on or outside the domain edges
			}
		}
		e.prio = priorityOf(seed, in.H)
		entries = append(entries, e)
	}
	slices.SortFunc(entries, func(a, b entry) int { return cmp.Compare(a.f, b.f) })
	// Entries with equal float values may still differ exactly: order
	// each such run by the exact breakpoint, then canonically.
	for i := 0; i < len(entries); {
		j := i + 1
		for j < len(entries) && entries[j].f == entries[i].f {
			j++
		}
		if run := entries[i:j]; len(run) > 1 {
			for k := range run {
				exact(&run[k])
			}
			slices.SortFunc(run, func(a, b entry) int {
				if c := a.t.Cmp(b.t); c != 0 {
					return c
				}
				if canonLess(a.prio, a.in, b.prio, b.in) {
					return -1
				}
				if canonLess(b.prio, b.in, a.prio, a.in) {
					return 1
				}
				return 0
			})
		}
		i = j
	}
	arr := &Arrangement1D{Seed: seed}
	for i := 0; i < len(entries); {
		// A group never spans two float values; inside a float tie
		// every member's exact breakpoint was computed above.
		j := i + 1
		for j < len(entries) && entries[j].f == entries[i].f && entries[j].t.Cmp(entries[i].t) == 0 {
			j++
		}
		g := &Group1D{T: exact(&entries[i]), Members: make([]Intersection, j-i), prios: make([]uint64, j-i)}
		for k := i; k < j; k++ {
			g.Members[k-i] = entries[k].in
			g.prios[k-i] = entries[k].prio
		}
		arr.Groups = append(arr.Groups, g)
		i = j
	}
	return arr, nil
}

// BuildCanonical1D reconstructs the canonical I-tree directly from an
// arrangement in O(S): a stack-based Cartesian construction over the
// breakpoint sequence (BST by breakpoint, min-heap by canonical
// priority), with the subdomain leaves attached into the gaps. By treap
// uniqueness it returns the same tree Build produces by inserting the
// arrangement's intersections in canonical order — without any of
// Build's O(S log S) exact-rational descent work. It is how every 1-D
// canonical-order tree is built: by the full construction from a fresh
// arrangement and by the mutation plane from a merged one.
func BuildCanonical1D(space *geometry.Space1D, arr *Arrangement1D) (*Tree, error) {
	root, ok := space.Root().(geometry.Interval1D)
	if !ok {
		return nil, fmt.Errorf("itree: 1-D space has a non-interval root region")
	}
	t := &Tree{Space: space}
	if len(arr.Groups) == 0 {
		t.Root = &Node{Leaf: &Subdomain{Region: root}}
		t.NodeCount = 1
		t.enumerate()
		return t, nil
	}

	// Cartesian construction of the internal-node skeleton: walk the
	// breakpoints left to right, keeping the rightmost spine on a stack
	// ordered by ascending priority from bottom to top of the tree.
	less := func(a, b int) bool {
		ga, gb := arr.Groups[a], arr.Groups[b]
		return canonLess(ga.prios[0], ga.Members[0], gb.prios[0], gb.Members[0])
	}
	// left[i] / right[i] are the child *groups* of group i, -1 for none.
	left := make([]int, len(arr.Groups))
	right := make([]int, len(arr.Groups))
	for i := range left {
		left[i], right[i] = -1, -1
	}
	var stack []int
	for i := range arr.Groups {
		var last = -1
		for len(stack) > 0 && less(i, stack[len(stack)-1]) {
			last = stack[len(stack)-1]
			stack = stack[:len(stack)-1]
		}
		left[i] = last
		if len(stack) > 0 {
			right[stack[len(stack)-1]] = i
		}
		stack = append(stack, i)
	}
	rootGroup := stack[0]

	// Attach leaves: gap g spans (boundary g-1, boundary g) with the
	// domain edges closing the ends. The strictness at each breakpoint
	// follows the representative hyperplane's sign exactly as the
	// insert-path Partition assigns it: the side where c·x + b >= 0
	// keeps the closed endpoint at t. Gap g's leaf is subdomain g: the
	// gaps are in spatial order, so the leaves need no sort.
	leaves := make([]*Subdomain, len(arr.Groups)+1)
	leafFor := func(g int) *Node {
		iv := geometry.Interval1D{}
		if g == 0 {
			iv.Lo, iv.LoStrict = root.Lo, root.LoStrict
		} else {
			rep := arr.Groups[g-1].Rep()
			iv.Lo = arr.Groups[g-1].T
			iv.LoStrict = rep.H.C[0] <= 0 // c > 0: right side closed at t
		}
		if g == len(arr.Groups) {
			iv.Hi, iv.HiStrict = root.Hi, root.HiStrict
		} else {
			rep := arr.Groups[g].Rep()
			iv.Hi = arr.Groups[g].T
			iv.HiStrict = rep.H.C[0] > 0 // c > 0: left side open at t
		}
		leaves[g] = &Subdomain{ID: g, Region: iv}
		return &Node{Leaf: leaves[g]}
	}
	// build assembles the subtree rooted at group g by recursing on the
	// skeleton; a missing child means the adjacent gap leaf (gap g lies
	// immediately left of boundary g, gap g+1 immediately right).
	var build func(g int) *Node
	build = func(g int) *Node {
		n := &Node{Int: &arr.Groups[g].Members[0]}
		var l, r *Node
		if left[g] >= 0 {
			l = build(left[g])
		} else {
			l = leafFor(g)
		}
		if right[g] >= 0 {
			r = build(right[g])
		} else {
			r = leafFor(g + 1)
		}
		// "Above" is the halfspace c·x + b >= 0: spatially the right
		// side when c > 0, the left side when c < 0.
		if n.Int.H.C[0] > 0 {
			n.Above, n.Below = r, l
		} else {
			n.Above, n.Below = l, r
		}
		return n
	}
	t.Root = build(rootGroup)
	t.NodeCount = 2*len(arr.Groups) + 1
	t.Inserted = len(arr.Groups)
	t.Subs = leaves
	return t, nil
}
