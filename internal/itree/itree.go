// Package itree implements the Intersection tree (I-tree) of Yang & Cai,
// the index the paper extends into the IMH-tree: a binary space partition
// over the arrangement of the pairwise intersection hyperplanes
// f_i - f_j = 0. Internal nodes record one intersection and split their
// region into the "above" (f_i - f_j >= 0) and "below" halves; leaves are
// the subdomains inside which all record functions keep one fixed order.
//
// The tree is defined by the paper's §3.1 step 1: every intersection is
// inserted from the root, descending to each leaf whose region it
// genuinely splits. Build does exactly that (with internal-node pruning
// so an insertion only visits the subtrees its hyperplane crosses), over
// an abstract geometry.Space, so the same code serves the exact rational
// 1-D space and the LP-backed n-dimensional space. A 1-D tree built in
// the canonical order (see canonical.go) is a pure function of its
// sorted breakpoint arrangement, so BuildCanonical1D constructs that
// same tree from the arrangement in linear time instead; Build remains
// the construction for n-D spaces and for enumeration-order 1-D trees,
// and the slow reference the differential tests hold the fast path to.
package itree

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
)

// Intersection is the hyperplane f_I - f_J = 0 between two record
// functions (I < J by convention).
type Intersection struct {
	I, J int
	H    geometry.Hyperplane
}

// Node is an I-tree node. Exactly one of Int (internal intersection node)
// and Leaf (subdomain node) is non-nil. Hash is filled by the IMH layer
// (package core); the I-tree itself is crypto-free.
type Node struct {
	Int          *Intersection
	Above, Below *Node
	Leaf         *Subdomain
	Hash         hashing.Digest
}

// IsLeaf reports whether n is a subdomain node.
func (n *Node) IsLeaf() bool { return n.Leaf != nil }

// Subdomain is a leaf's payload: a region of the domain within which the
// record functions are strictly sortable. ID is assigned after
// construction — in left-to-right spatial order for 1-D spaces, creation
// order otherwise — and indexes the per-subdomain data kept by higher
// layers.
type Subdomain struct {
	ID     int
	Region geometry.Region
}

// Tree is a built I-tree.
type Tree struct {
	Space geometry.Space
	Root  *Node
	// Subs lists the leaves by ID.
	Subs []*Subdomain
	// NodeCount is the total node count (internal + leaves).
	NodeCount int
	// Inserted counts the intersections that actually split some region
	// (duplicates and out-of-domain intersections insert nothing).
	Inserted int
}

// BuildOptions tunes construction.
type BuildOptions struct {
	// Shuffle inserts the intersections in the canonical content-keyed
	// pseudorandom order (see canonical.go) instead of enumeration
	// order, which keeps the expected tree depth logarithmic the same
	// way random insertion balances a binary search tree — the paper
	// does not fix an insertion order; the ablation bench quantifies
	// the difference. Unlike an index shuffle, the canonical order is a
	// pure function of each intersection's content, so the tree shape
	// is determined by the intersection *set* — the property the
	// mutation plane's incremental apply relies on.
	Shuffle bool
	// Seed seeds the canonical priorities.
	Seed int64
}

// Pairs1D enumerates the intersections of univariate linear functions
// whose breakpoint falls inside the domain. A cheap float prefilter (with
// a widened margin so no in-domain breakpoint is ever excluded) avoids
// allocating hyperplanes for the quadratically many out-of-domain pairs;
// the exact checks of NewArrangement1D (or of Space1D.Partition, on the
// insert path) remain the authority.
// It is the trivial single-bucket case of PairsPartition1D, which keeps
// the enumeration loop — margin, hyperplane sign convention and all — in
// one place.
func Pairs1D(fs []funcs.Linear, domain geometry.Box) ([]Intersection, error) {
	return Pairs1DCtx(context.Background(), fs, domain, 1)
}

// Pairs1DCtx is Pairs1D with the O(n²) scan sharded across workers and
// cooperative cancellation (see PairsPartition1DCtx). The enumeration
// order is byte-identical to Pairs1D for every worker count — the
// property the seeded-shuffle tree construction depends on.
func Pairs1DCtx(ctx context.Context, fs []funcs.Linear, domain geometry.Box, workers int) ([]Intersection, error) {
	buckets, err := PairsPartition1DCtx(ctx, fs, domain, nil, workers)
	if err != nil {
		return nil, err
	}
	return buckets[0], nil
}

// PairsND enumerates all non-degenerate pairwise intersections for
// multivariate functions. Whether each hyperplane crosses the domain is
// left to the LP-backed Partition during insertion.
func PairsND(fs []funcs.Linear) []Intersection {
	var out []Intersection
	for i := 0; i < len(fs); i++ {
		for j := i + 1; j < len(fs); j++ {
			h := funcs.Diff(fs[i], fs[j])
			if h.IsDegenerate() {
				continue
			}
			out = append(out, Intersection{I: i, J: j, H: h})
		}
	}
	return out
}

// Build constructs the I-tree over the given intersections by inserting
// each one from the root, in the canonical order when opt.Shuffle is
// set and in enumeration order otherwise. Every insertion recomputes
// the exact child regions along its path, which costs O(S log S) exact
// partitions in total; for 1-D canonical-order trees BuildCanonical1D
// builds the identical tree from the arrangement without them.
func Build(space geometry.Space, inters []Intersection, opt BuildOptions) (*Tree, error) {
	t := &Tree{
		Space:     space,
		Root:      &Node{Leaf: &Subdomain{Region: space.Root()}},
		NodeCount: 1,
	}
	var order []int
	if opt.Shuffle {
		order = canonicalOrder(inters, opt.Seed)
	} else {
		order = make([]int, len(inters))
		for i := range order {
			order[i] = i
		}
	}
	for _, k := range order {
		t.insert(t.Root, space.Root(), &inters[k])
	}
	t.enumerate()
	return t, nil
}

// insert pushes one intersection down the subtree rooted at n, whose
// region is given, splitting every leaf the hyperplane crosses.
func (t *Tree) insert(n *Node, region geometry.Region, in *Intersection) {
	if n.IsLeaf() {
		above, below, ok := t.Space.Partition(region, in.H)
		if !ok {
			return
		}
		n.Int = in
		n.Above = &Node{Leaf: &Subdomain{Region: above}}
		n.Below = &Node{Leaf: &Subdomain{Region: below}}
		n.Leaf = nil
		t.NodeCount += 2
		t.Inserted++
		return
	}
	// Recompute the child regions (they are not stored, to keep the tree
	// lean), then recurse only into children the hyperplane can split.
	aboveR, belowR, ok := t.Space.Partition(region, n.Int.H)
	if !ok {
		// The node's own hyperplane split this region at construction
		// time; Partition is deterministic, so this cannot happen.
		panic("itree: internal node's hyperplane no longer splits its region")
	}
	if _, _, crosses := t.Space.Partition(aboveR, in.H); crosses {
		t.insert(n.Above, aboveR, in)
	}
	if _, _, crosses := t.Space.Partition(belowR, in.H); crosses {
		t.insert(n.Below, belowR, in)
	}
}

// enumerate assigns subdomain IDs and fills Subs. For a 1-D space the
// leaves are sorted left to right by interval start so that consecutive
// IDs are spatially adjacent (the property the subdomain sweep relies
// on); other spaces keep discovery order.
func (t *Tree) enumerate() {
	var leaves []*Subdomain
	var walk func(n *Node)
	walk = func(n *Node) {
		if n.IsLeaf() {
			leaves = append(leaves, n.Leaf)
			return
		}
		walk(n.Below)
		walk(n.Above)
	}
	walk(t.Root)
	if _, ok := t.Space.(*geometry.Space1D); ok {
		sort.Slice(leaves, func(a, b int) bool {
			ia := leaves[a].Region.(geometry.Interval1D)
			ib := leaves[b].Region.(geometry.Interval1D)
			return ia.Lo.Cmp(ib.Lo) < 0
		})
	}
	for i, l := range leaves {
		l.ID = i
	}
	t.Subs = leaves
}

// PathStep records one hop of a root-to-leaf search: the internal node
// passed and which child was taken.
type PathStep struct {
	Node      *Node
	TookAbove bool
}

// Search descends from the root to the subdomain containing x, recording
// the path. The counter observes every node visited (the IMH part of the
// server's Fig 6 traversal cost). Search follows the paper's branching
// rule: go above iff f_i(x) - f_j(x) >= 0.
func (t *Tree) Search(x geometry.Point, ctr *metrics.Counter) (*Subdomain, []PathStep) {
	n := t.Root
	var path []PathStep
	for !n.IsLeaf() {
		ctr.AddNodes(1)
		took := n.Int.H.Side(x) >= 0
		path = append(path, PathStep{Node: n, TookAbove: took})
		if took {
			n = n.Above
		} else {
			n = n.Below
		}
	}
	ctr.AddNodes(1)
	return n.Leaf, path
}

// Depth returns the maximum root-to-leaf depth (nodes on path).
func (t *Tree) Depth() int {
	var rec func(n *Node) int
	rec = func(n *Node) int {
		if n.IsLeaf() {
			return 1
		}
		a, b := rec(n.Above), rec(n.Below)
		if a > b {
			return a + 1
		}
		return b + 1
	}
	return rec(t.Root)
}

// Boundaries1D returns, for a 1-D tree, the S-1 interior breakpoints
// separating consecutive subdomains, in ascending order. It errors if two
// adjacent leaves do not share an endpoint (which would indicate a
// construction bug).
func (t *Tree) Boundaries1D() ([]*big.Rat, error) {
	if _, ok := t.Space.(*geometry.Space1D); !ok {
		return nil, fmt.Errorf("itree: Boundaries1D needs a 1-D space")
	}
	out := make([]*big.Rat, 0, len(t.Subs)-1)
	for i := 0; i+1 < len(t.Subs); i++ {
		cur := t.Subs[i].Region.(geometry.Interval1D)
		next := t.Subs[i+1].Region.(geometry.Interval1D)
		if cur.Hi != next.Lo && cur.Hi.Cmp(next.Lo) != 0 {
			return nil, fmt.Errorf("itree: leaves %d and %d do not abut (%v vs %v)",
				i, i+1, cur.Hi, next.Lo)
		}
		out = append(out, cur.Hi)
	}
	return out, nil
}
