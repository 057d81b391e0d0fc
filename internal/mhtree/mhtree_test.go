package mhtree

import (
	"math/rand"
	"testing"

	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
)

func mkLeaves(n int, seed int64) []hashing.Digest {
	rng := rand.New(rand.NewSource(seed))
	out := make([]hashing.Digest, n)
	for i := range out {
		rng.Read(out[i][:])
	}
	return out
}

func TestLeftWidth(t *testing.T) {
	tests := []struct{ w, want int }{
		{2, 1}, {3, 2}, {4, 2}, {5, 4}, {6, 4}, {7, 4}, {8, 4},
		{9, 8}, {12, 8}, {16, 8}, {17, 16},
	}
	for _, tc := range tests {
		if got := LeftWidth(tc.w); got != tc.want {
			t.Errorf("LeftWidth(%d) = %d, want %d", tc.w, got, tc.want)
		}
	}
}

// buildBottomUp is an independent implementation of the paper's literal
// construction (§3.1 step 2): pair nodes left to right per level, promote
// an odd trailing node unchanged. Used to prove the recursive Build is the
// same tree.
func buildBottomUp(h *hashing.Hasher, leaves []hashing.Digest) hashing.Digest {
	type nd struct{ d hashing.Digest }
	level := make([]nd, len(leaves))
	for i, l := range leaves {
		level[i] = nd{d: l}
	}
	for len(level) > 1 {
		var next []nd
		for i := 0; i+1 < len(level); i += 2 {
			next = append(next, nd{d: h.Node(level[i].d, level[i+1].d)})
		}
		if len(level)%2 == 1 {
			next = append(next, level[len(level)-1])
		}
		level = next
	}
	return level[0].d
}

func TestBuildMatchesPaperConstruction(t *testing.T) {
	h := hashing.New(nil)
	for n := 1; n <= 70; n++ {
		leaves := mkLeaves(n, int64(n))
		tree := Build(h, leaves)
		if tree.LeafCount() != n {
			t.Fatalf("n=%d: LeafCount = %d", n, tree.LeafCount())
		}
		want := buildBottomUp(h, leaves)
		if tree.Root() != want {
			t.Fatalf("n=%d: recursive build root differs from pair-and-promote root", n)
		}
	}
}

func TestBuildEmpty(t *testing.T) {
	if Build(hashing.New(nil), nil) != nil {
		t.Error("empty build should be nil")
	}
}

func TestBuildHashCount(t *testing.T) {
	var ctr metrics.Counter
	h := hashing.New(&ctr)
	Build(h, mkLeaves(33, 1))
	if ctr.Hashes != 32 {
		t.Errorf("building 33 leaves used %d hashes, want 32 (w-1 internal nodes)", ctr.Hashes)
	}
}

func TestLeafAccess(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(13, 2)
	tree := Build(h, leaves)
	for i, want := range leaves {
		if got := tree.Leaf(i); got != want {
			t.Fatalf("Leaf(%d) mismatch", i)
		}
	}
	got := tree.Leaves()
	for i := range leaves {
		if got[i] != leaves[i] {
			t.Fatalf("Leaves()[%d] mismatch", i)
		}
	}
}

func TestWithLeaf(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(10, 3)
	tree := Build(h, leaves)
	var repl hashing.Digest
	repl[0] = 0xff
	for i := 0; i < 10; i++ {
		mod := WithLeaf(h, tree, i, repl)
		want := append([]hashing.Digest(nil), leaves...)
		want[i] = repl
		if mod.Root() != Build(h, want).Root() {
			t.Fatalf("WithLeaf(%d) root differs from fresh build", i)
		}
		// Original is untouched (persistence).
		if tree.Leaf(i) != leaves[i] {
			t.Fatalf("WithLeaf(%d) mutated the original", i)
		}
	}
}

func TestSwapLeaves(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{2, 3, 5, 8, 11, 16, 33} {
		leaves := mkLeaves(n, int64(n)*7)
		tree := Build(h, leaves)
		for i := 0; i+1 < n; i++ {
			var ctr metrics.Counter
			swapped := SwapLeaves(hashing.New(&ctr), tree, i)
			want := append([]hashing.Digest(nil), leaves...)
			want[i], want[i+1] = want[i+1], want[i]
			if swapped.Root() != Build(h, want).Root() {
				t.Fatalf("n=%d SwapLeaves(%d) root differs from fresh build", n, i)
			}
			if got, want := ctr.Hashes, uint64(pathNodes(n, i, i+1)); got != want {
				t.Fatalf("n=%d SwapLeaves(%d) used %d hashes, want %d (each internal node on the two paths once)", n, i, got, want)
			}
		}
	}
}

// pathNodes counts the distinct internal nodes of a w-leaf tree that
// lie on the root paths of leaves i and j.
func pathNodes(w, i, j int) int {
	if w == 1 || (i < 0 && j < 0) {
		return 0
	}
	lw := LeftWidth(w)
	left := func(k int) int {
		if k < lw {
			return k
		}
		return -1
	}
	right := func(k int) int {
		if k >= lw && k < w {
			return k - lw
		}
		return -1
	}
	return 1 + pathNodes(lw, left(i), left(j)) + pathNodes(w-lw, right(i), right(j))
}

func TestPersistentSharingBoundsMemory(t *testing.T) {
	h := hashing.New(nil)
	n := 256
	base := Build(h, mkLeaves(n, 9))
	roots := []*Node{base}
	cur := base
	derivations := 200
	for i := 0; i < derivations; i++ {
		cur = SwapLeaves(h, cur, i%(n-1))
		roots = append(roots, cur)
	}
	total := CountForest(roots)
	// A fresh build per derivation would cost (2n-1) * (derivations+1)
	// ≈ 102k nodes; sharing should stay well under a quarter of that.
	independent := (2*n - 1) * (derivations + 1)
	if total >= independent/4 {
		t.Errorf("persistent forest has %d nodes; expected far fewer than %d", total, independent)
	}
}

func TestRangeProofRoundTrip(t *testing.T) {
	h := hashing.New(nil)
	for _, n := range []int{1, 2, 3, 7, 8, 13, 32, 57} {
		leaves := mkLeaves(n, int64(n)*13)
		tree := Build(h, leaves)
		for lo := 0; lo < n; lo++ {
			for hi := lo; hi < n; hi++ {
				proof, err := tree.RangeProof(lo, hi, nil)
				if err != nil {
					t.Fatalf("n=%d RangeProof(%d,%d): %v", n, lo, hi, err)
				}
				root, err := ComputeRoot(h, n, lo, leaves[lo:hi+1], proof)
				if err != nil {
					t.Fatalf("n=%d ComputeRoot(%d,%d): %v", n, lo, hi, err)
				}
				if root != tree.Root() {
					t.Fatalf("n=%d range [%d,%d]: recomputed root differs", n, lo, hi)
				}
			}
		}
	}
}

func TestRangeProofRejectsBadRange(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(5, 1))
	for _, rg := range [][2]int{{-1, 2}, {0, 5}, {3, 2}} {
		if _, err := tree.RangeProof(rg[0], rg[1], nil); err == nil {
			t.Errorf("RangeProof(%d,%d) accepted", rg[0], rg[1])
		}
	}
}

func TestComputeRootDetectsTampering(t *testing.T) {
	h := hashing.New(nil)
	n := 20
	leaves := mkLeaves(n, 5)
	tree := Build(h, leaves)
	lo, hi := 4, 9
	proof, _ := tree.RangeProof(lo, hi, nil)
	rng := leaves[lo : hi+1]

	// Tampered leaf digest -> different root.
	bad := append([]hashing.Digest(nil), rng...)
	bad[2][0] ^= 1
	if root, err := ComputeRoot(h, n, lo, bad, proof); err == nil && root == tree.Root() {
		t.Error("tampered leaf digest still produced the correct root")
	}

	// Shifted position -> different root (or error).
	if root, err := ComputeRoot(h, n, lo+1, rng, proof); err == nil && root == tree.Root() {
		t.Error("shifted range still produced the correct root")
	}

	// Truncated proof -> error.
	short := Proof{Hashes: proof.Hashes[:len(proof.Hashes)-1]}
	if _, err := ComputeRoot(h, n, lo, rng, short); err == nil {
		t.Error("truncated proof accepted")
	}

	// Padded proof -> error.
	long := Proof{Hashes: append(append([]hashing.Digest(nil), proof.Hashes...), hashing.Digest{})}
	if _, err := ComputeRoot(h, n, lo, rng, long); err == nil {
		t.Error("padded proof accepted")
	}

	// A forged leaf count is undetectable only while the shape difference
	// hides inside proof-covered subtrees (see ComputeRoot's doc comment);
	// once the range includes the tree's tail, it must be caught.
	tailLo := n - 3
	tailProof, _ := tree.RangeProof(tailLo, n-1, nil)
	if root, err := ComputeRoot(h, n+1, tailLo, leaves[tailLo:], tailProof); err == nil && root == tree.Root() {
		t.Error("forged leaf count with in-range tail still produced the correct root")
	}
}

func TestComputeRootRejectsInvalidArgs(t *testing.T) {
	h := hashing.New(nil)
	leaves := mkLeaves(3, 1)
	if _, err := ComputeRoot(h, 3, 0, nil, Proof{}); err == nil {
		t.Error("empty range accepted")
	}
	if _, err := ComputeRoot(h, 3, 2, leaves[:2], Proof{}); err == nil {
		t.Error("range past end accepted")
	}
	if _, err := ComputeRoot(h, 0, 0, leaves[:1], Proof{}); err == nil {
		t.Error("zero leaf count accepted")
	}
}

func TestRangeProofSizeLogarithmic(t *testing.T) {
	h := hashing.New(nil)
	n := 4096
	tree := Build(h, mkLeaves(n, 21))
	proof, err := tree.RangeProof(2000, 2002, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Two boundary paths of <= log2(4096) = 12 digests each.
	if len(proof.Hashes) > 26 {
		t.Errorf("proof for 3 of %d leaves has %d digests; want O(log n)", n, len(proof.Hashes))
	}
}

func TestRangeProofCountsTraversal(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(64, 2))
	var ctr metrics.Counter
	if _, err := tree.RangeProof(10, 12, &ctr); err != nil {
		t.Fatal(err)
	}
	if ctr.NodesVisited == 0 {
		t.Error("RangeProof should count visited nodes")
	}
}

func TestNodeCountDedup(t *testing.T) {
	h := hashing.New(nil)
	tree := Build(h, mkLeaves(8, 3))
	if got := tree.NodeCount(); got != 15 {
		t.Errorf("NodeCount = %d, want 15", got)
	}
	derived := SwapLeaves(h, tree, 0)
	// Swap at 0 touches the two leaves' shared path: leaves 0,1 share a
	// parent, so new nodes are 2 leaves + 3 ancestors = 5.
	if got := CountForest([]*Node{tree, derived}); got != 20 {
		t.Errorf("forest count = %d, want 20", got)
	}
}
