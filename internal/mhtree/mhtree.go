// Package mhtree implements the Merkle hash tree used for function lists
// (the paper's FMH-tree construction, §3.1 step 2): nodes are paired left
// to right and an odd trailing node is promoted to the next level
// unchanged. This yields, equivalently, a recursive shape whose left
// subtree always covers the largest power of two strictly smaller than the
// node's leaf span — the form used here because it lets a verifier
// recompute the shape from the leaf count alone.
//
// Trees are immutable and persistent: deriving a tree that differs in one
// leaf (or an adjacent swap) copies only the O(log n) path to the root and
// shares everything else. The IFMH construction leans on this heavily —
// consecutive subdomains differ by adjacent transpositions, so S
// subdomains cost O(n + S log n) memory instead of O(S n).
package mhtree

import (
	"fmt"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
)

// Node is an immutable Merkle tree node covering W leaves. Leaf nodes have
// W == 1 and nil children; internal nodes have exactly two children with
// H = hash(TagNode | L.H | R.H).
type Node struct {
	H    hashing.Digest
	L, R *Node
	W    int
}

// LeftWidth returns the leaf span of the left subtree of a node covering w
// leaves: the largest power of two strictly less than w. This is exactly
// the shape produced by the paper's pair-and-promote construction.
func LeftWidth(w int) int {
	if w < 2 {
		panic(fmt.Sprintf("mhtree: LeftWidth of width %d", w))
	}
	p := 1
	for p*2 < w {
		p *= 2
	}
	return p
}

// Build constructs a tree over the given leaf digests. It returns nil for
// an empty slice. The hasher's counter observes one hash per internal node
// (w-1 total).
func Build(h *hashing.Hasher, leaves []hashing.Digest) *Node {
	if len(leaves) == 0 {
		return nil
	}
	return build(h, leaves, 0, len(leaves))
}

func build(h *hashing.Hasher, leaves []hashing.Digest, off, w int) *Node {
	if w == 1 {
		return &Node{H: leaves[off], W: 1}
	}
	lw := LeftWidth(w)
	l := build(h, leaves, off, lw)
	r := build(h, leaves, off+lw, w-lw)
	return &Node{H: h.Node(l.H, r.H), L: l, R: r, W: w}
}

// Root returns the root digest.
func (n *Node) Root() hashing.Digest { return n.H }

// LeafCount returns the number of leaves under n.
func (n *Node) LeafCount() int { return n.W }

// Leaf returns the digest of leaf i (0-based).
func (n *Node) Leaf(i int) hashing.Digest {
	if i < 0 || i >= n.W {
		panic(fmt.Sprintf("mhtree: leaf %d out of range [0,%d)", i, n.W))
	}
	for n.W > 1 {
		lw := LeftWidth(n.W)
		if i < lw {
			n = n.L
		} else {
			n = n.R
			i -= lw
		}
	}
	return n.H
}

// WithLeaf returns a tree equal to n except that leaf i holds d. The
// returned tree shares all untouched subtrees with n.
func WithLeaf(h *hashing.Hasher, n *Node, i int, d hashing.Digest) *Node {
	if i < 0 || i >= n.W {
		panic(fmt.Sprintf("mhtree: leaf %d out of range [0,%d)", i, n.W))
	}
	if n.W == 1 {
		return &Node{H: d, W: 1}
	}
	lw := LeftWidth(n.W)
	if i < lw {
		nl := WithLeaf(h, n.L, i, d)
		return &Node{H: h.Node(nl.H, n.R.H), L: nl, R: n.R, W: n.W}
	}
	nr := WithLeaf(h, n.R, i-lw, d)
	return &Node{H: h.Node(n.L.H, nr.H), L: n.L, R: nr, W: n.W}
}

// SwapLeaves returns a tree with leaves i and i+1 exchanged, sharing
// structure with n. This is the adjacent-transposition derivation used
// when walking from one subdomain's FMH-tree to the next. It descends
// once, so every node on the two leaves' paths is rehashed once: the
// paths share every node above the leaves' lowest common ancestor.
func SwapLeaves(h *hashing.Hasher, n *Node, i int) *Node {
	if i < 0 || i+1 >= n.W {
		panic(fmt.Sprintf("mhtree: swap at %d out of range [0,%d)", i, n.W-1))
	}
	return swapLeaves(h, n, i, n.Leaf(i), n.Leaf(i+1))
}

// swapLeaves returns n with leaf i set to b and leaf i+1 set to a.
func swapLeaves(h *hashing.Hasher, n *Node, i int, a, b hashing.Digest) *Node {
	lw := LeftWidth(n.W)
	switch {
	case i+1 < lw:
		nl := swapLeaves(h, n.L, i, a, b)
		return &Node{H: h.Node(nl.H, n.R.H), L: nl, R: n.R, W: n.W}
	case i >= lw:
		nr := swapLeaves(h, n.R, i-lw, a, b)
		return &Node{H: h.Node(n.L.H, nr.H), L: n.L, R: nr, W: n.W}
	default: // n is the lowest common ancestor: leaf i ends L, i+1 starts R
		nl := WithLeaf(h, n.L, i, b)
		nr := WithLeaf(h, n.R, 0, a)
		return &Node{H: h.Node(nl.H, nr.H), L: nl, R: nr, W: n.W}
	}
}

// Leaves returns all leaf digests left to right. Intended for tests and
// small trees; it allocates O(n).
func (n *Node) Leaves() []hashing.Digest {
	out := make([]hashing.Digest, 0, n.W)
	var walk func(*Node)
	walk = func(m *Node) {
		if m.W == 1 {
			out = append(out, m.H)
			return
		}
		walk(m.L)
		walk(m.R)
	}
	walk(n)
	return out
}

// NodeCount returns the total number of distinct nodes reachable from n,
// deduplicating shared subtrees. It measures the real memory footprint of
// a persistent forest when called through CountForest.
func (n *Node) NodeCount() int {
	seen := make(map[*Node]bool)
	return countNodes(n, seen)
}

// CountForest returns the number of distinct nodes across a set of trees
// that may share structure.
func CountForest(roots []*Node) int {
	seen := make(map[*Node]bool)
	total := 0
	for _, r := range roots {
		if r != nil {
			total += countNodes(r, seen)
		}
	}
	return total
}

func countNodes(n *Node, seen map[*Node]bool) int {
	if n == nil || seen[n] {
		return 0
	}
	seen[n] = true
	return 1 + countNodes(n.L, seen) + countNodes(n.R, seen)
}

// Proof is the evidence needed to recompute a root from a contiguous leaf
// range: the digests of the maximal subtrees entirely outside the range,
// in deterministic depth-first order. Its size is O(log n) regardless of
// the range width.
type Proof struct {
	Hashes []hashing.Digest
}

// RangeProof builds the proof for leaves [lo, hi] (inclusive). The counter
// observes every node visited during construction, which is the server's
// VO-construction traversal cost in the paper's Fig 6.
func (n *Node) RangeProof(lo, hi int, ctr *metrics.Counter) (Proof, error) {
	if lo < 0 || hi >= n.W || lo > hi {
		return Proof{}, fmt.Errorf("mhtree: range [%d,%d] out of bounds for %d leaves", lo, hi, n.W)
	}
	var p Proof
	var walk func(m *Node, off int)
	walk = func(m *Node, off int) {
		ctr.AddNodes(1)
		if off+m.W <= lo || off > hi {
			// Entirely outside: contribute one digest.
			p.Hashes = append(p.Hashes, m.H)
			return
		}
		if m.W == 1 {
			return // inside the range; verifier recomputes it
		}
		lw := LeftWidth(m.W)
		walk(m.L, off)
		walk(m.R, off+lw)
	}
	walk(n, 0)
	return p, nil
}

// ComputeRoot replays a range proof: given the tree's leaf count, the
// range start, the in-range leaf digests, and the proof, it recomputes the
// root digest using the same deterministic traversal as RangeProof. The
// caller compares the result against a trusted root. Errors indicate a
// malformed proof (wrong length), never a hash mismatch — mismatches
// surface as a different root.
//
// Authentication granularity: a matching root binds every in-range leaf
// digest to its absolute position. The leaf count itself is bound only to
// the extent it changes in-range placement — a forged count whose shape
// differences lie entirely inside proof-covered subtrees reproduces the
// root. Protocol layers must therefore never trust leafCount on its own;
// the FMH layer binds list length into the sentinel leaf digests, which
// are in range exactly when length matters (top-k boundaries).
func ComputeRoot(h *hashing.Hasher, leafCount, lo int, leaves []hashing.Digest, p Proof) (hashing.Digest, error) {
	hi := lo + len(leaves) - 1
	if leafCount <= 0 || lo < 0 || len(leaves) == 0 || hi >= leafCount {
		return hashing.Digest{}, fmt.Errorf("mhtree: invalid range [%d,%d] for %d leaves", lo, hi, leafCount)
	}
	cursor := 0
	var rec func(off, w int) (hashing.Digest, error)
	rec = func(off, w int) (hashing.Digest, error) {
		if off+w <= lo || off > hi {
			if cursor >= len(p.Hashes) {
				return hashing.Digest{}, fmt.Errorf("mhtree: proof exhausted at subtree [%d,%d)", off, off+w)
			}
			d := p.Hashes[cursor]
			cursor++
			return d, nil
		}
		if w == 1 {
			return leaves[off-lo], nil
		}
		lw := LeftWidth(w)
		l, err := rec(off, lw)
		if err != nil {
			return hashing.Digest{}, err
		}
		r, err := rec(off+lw, w-lw)
		if err != nil {
			return hashing.Digest{}, err
		}
		return h.Node(l, r), nil
	}
	root, err := rec(0, leafCount)
	if err != nil {
		return hashing.Digest{}, err
	}
	if cursor != len(p.Hashes) {
		return hashing.Digest{}, fmt.Errorf("mhtree: proof has %d unused digests", len(p.Hashes)-cursor)
	}
	return root, nil
}
