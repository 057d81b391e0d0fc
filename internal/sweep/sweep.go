// Package sweep computes the 1-D subdomain sweep shared by the IFMH-tree
// and the signature-mesh baseline: given the subdomains of a univariate
// arrangement in left-to-right order, it produces the exact sorted order
// of the leftmost subdomain plus, per boundary, the ordered adjacent
// transpositions that turn each subdomain's order into its right
// neighbor's.
//
// The functions intersecting at a boundary tie exactly there, so their
// positions form contiguous runs; each run is re-sorted to the next
// subdomain's exact rational order with bubble transpositions. This is
// what makes the delta representation (one base permutation + O(1)
// amortized swaps per intersection) possible.
package sweep

import (
	"context"
	"fmt"
	"math/big"
	"sort"
	"sync"

	"aqverify/internal/funcs"
	"aqverify/internal/pool"
)

// Pair names two intersecting functions by index.
type Pair struct{ I, J int }

// Plan is a computed sweep: BasePerm is subdomain 0's sorted order
// (position -> function index); Swaps[k] lists the adjacent-swap
// positions applied crossing from subdomain k to k+1, in order.
type Plan struct {
	BasePerm []int
	Swaps    [][]int
}

// NumSubdomains returns the subdomain count the plan covers.
func (p Plan) NumSubdomains() int { return len(p.Swaps) + 1 }

// TotalSwaps returns the total transposition count across all boundaries
// (equal to the number of genuinely crossing pairs).
func (p Plan) TotalSwaps() int {
	total := 0
	for _, s := range p.Swaps {
		total += len(s)
	}
	return total
}

// Compute builds the plan. witnesses[k] must be an exact interior point of
// subdomain k (k = 0..S-1); groups[k] lists the function pairs whose
// intersection forms boundary k (k = 0..S-2).
func Compute(fs []funcs.Linear, witnesses []*big.Rat, groups [][]Pair) (Plan, error) {
	return ComputeCtx(context.Background(), fs, witnesses, groups, 1)
}

// ComputeCtx is Compute with the boundary sweep sharded across a worker
// pool and cooperative cancellation. The sweep looks inherently serial —
// each boundary's swaps are derived from the permutation to its left —
// but the permutation inside subdomain k is fully determined without
// sweeping: it is the exact sorted order at witness k (ties by function
// index), because every pair that reorders between adjacent witnesses
// crosses at the boundary between them and is re-sorted there. Each
// worker therefore seeds a contiguous boundary chunk with one O(n log n)
// exact sort at the chunk's first witness and sweeps only its own chunk;
// chunk seams are cross-checked after the join (each chunk's final
// permutation must equal its right neighbor's seed), so a broken
// contiguity assumption fails loudly instead of producing a wrong plan.
//
// Swaps[k] depends only on (exact permutation at k, groups[k],
// witnesses[k+1]), so the plan is byte-identical for every worker count.
// workers <= 0 means one per CPU.
func ComputeCtx(ctx context.Context, fs []funcs.Linear, witnesses []*big.Rat, groups [][]Pair, workers int) (Plan, error) {
	if len(witnesses) == 0 {
		return Plan{}, fmt.Errorf("sweep: no subdomains")
	}
	if len(groups) != len(witnesses)-1 {
		return Plan{}, fmt.Errorf("sweep: %d witnesses need %d boundary groups, got %d",
			len(witnesses), len(witnesses)-1, len(groups))
	}
	for k, group := range groups {
		if len(group) == 0 {
			return Plan{}, fmt.Errorf("sweep: boundary %d has no crossing pairs", k)
		}
	}
	chunks := pool.Workers(workers, len(groups))
	plan := Plan{Swaps: make([][]int, len(groups))}
	seeds := make([][]int, chunks)  // chunk c's seed permutation
	finals := make([][]int, chunks) // chunk c's permutation after its last boundary
	errs := make([]error, chunks)
	b := len(groups)
	runErr := pool.RunCtx(ctx, chunks, chunks, func(_, c int) {
		lo, hi := c*b/chunks, (c+1)*b/chunks
		perm := funcs.SortAtRat(fs, witnesses[lo])
		seeds[c] = append([]int(nil), perm...)
		inv := funcs.InversePerm(perm)
		for k := lo; k < hi; k++ {
			if ctx.Err() != nil {
				return
			}
			swaps, err := applyCrossing(fs, perm, inv, groups[k], witnesses[k+1])
			if err != nil {
				errs[c] = fmt.Errorf("sweep: boundary %d: %w", k, err)
				return
			}
			plan.Swaps[k] = swaps
		}
		finals[c] = perm
	})
	for _, err := range errs {
		if err != nil {
			return Plan{}, err
		}
	}
	if runErr != nil {
		return Plan{}, runErr
	}
	if err := ctx.Err(); err != nil {
		return Plan{}, err
	}
	for c := 0; c+1 < chunks; c++ {
		if !equalPerm(finals[c], seeds[c+1]) {
			return Plan{}, fmt.Errorf("sweep: chunk seam mismatch at boundary %d: swept permutation disagrees with the exact sorted order", (c+1)*b/chunks)
		}
	}
	plan.BasePerm = seeds[0]
	return plan, nil
}

// equalPerm reports whether two permutations are identical.
func equalPerm(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// applyCrossing mutates perm/inv across one boundary and returns the
// swap positions applied.
func applyCrossing(fs []funcs.Linear, perm, inv []int, group []Pair, nextWitness *big.Rat) ([]int, error) {
	w := funcs.NewRatPoint(nextWitness)
	involved := map[int]bool{}
	for _, pr := range group {
		involved[pr.I] = true
		involved[pr.J] = true
	}
	positions := make([]int, 0, len(involved))
	//lint:ignore mapdeterminism order-blind: positions are sorted immediately below, before any use
	for f := range involved {
		if f < 0 || f >= len(perm) {
			return nil, fmt.Errorf("pair references function %d outside [0,%d)", f, len(perm))
		}
		positions = append(positions, inv[f])
	}
	sort.Ints(positions)

	var swaps []int
	for i := 0; i < len(positions); {
		j := i
		for j+1 < len(positions) && positions[j+1] == positions[j]+1 {
			j++
		}
		s := resortRun(fs, perm, inv, positions[i], positions[j], w)
		swaps = append(swaps, s...)
		i = j + 1
	}

	// Defensive cross-check: every crossing pair must now be ordered as
	// the next subdomain demands; a violation means the contiguity
	// assumption broke and the caller must not build on a wrong order.
	for _, pr := range group {
		want := rankLess(fs[pr.I], fs[pr.J], w)
		if (inv[pr.I] < inv[pr.J]) != want {
			return nil, fmt.Errorf("pair (%d,%d) not ordered for the next subdomain", pr.I, pr.J)
		}
	}
	return swaps, nil
}

// rankLess reports whether f sorts before g at the exact point w. The
// comparison is exact; funcs.CmpAt filters it through the float scores.
func rankLess(f, g funcs.Linear, w funcs.RatPoint) bool {
	if c := funcs.CmpAt(f, g, w); c != 0 {
		return c < 0
	}
	return f.Index < g.Index
}

// resortRun bubble-sorts the block perm[lo..hi] into the exact order at
// witness w, recording each adjacent transposition.
func resortRun(fs []funcs.Linear, perm, inv []int, lo, hi int, w funcs.RatPoint) []int {
	block := append([]int(nil), perm[lo:hi+1]...)
	sort.Slice(block, func(a, b int) bool {
		return rankLess(fs[block[a]], fs[block[b]], w)
	})
	rank := make(map[int]int, len(block))
	for r, f := range block {
		rank[f] = r
	}
	var swaps []int
	for pass := 0; pass < len(block); pass++ {
		moved := false
		for p := lo; p < hi; p++ {
			if rank[perm[p]] > rank[perm[p+1]] {
				perm[p], perm[p+1] = perm[p+1], perm[p]
				inv[perm[p]] = p
				inv[perm[p+1]] = p + 1
				swaps = append(swaps, p)
				moved = true
			}
		}
		if !moved {
			break
		}
	}
	return swaps
}

// Cursor materializes any subdomain's permutation from a plan by
// replaying swaps; it is safe for concurrent use. PermAt returns a fresh
// copy made under the cursor's lock, so callers may read it while other
// goroutines advance the cursor.
type Cursor struct {
	mu   sync.Mutex
	plan Plan
	perm []int
	at   int
}

// NewCursor returns a cursor positioned at subdomain 0.
func NewCursor(plan Plan) *Cursor {
	return &Cursor{plan: plan, perm: append([]int(nil), plan.BasePerm...)}
}

// PermAt returns the sorted permutation of subdomain id.
func (c *Cursor) PermAt(id int) ([]int, error) {
	if id < 0 || id >= c.plan.NumSubdomains() {
		return nil, fmt.Errorf("sweep: subdomain %d out of range [0,%d)", id, c.plan.NumSubdomains())
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for c.at < id {
		for _, pos := range c.plan.Swaps[c.at] {
			c.perm[pos], c.perm[pos+1] = c.perm[pos+1], c.perm[pos]
		}
		c.at++
	}
	for c.at > id {
		c.at--
		sw := c.plan.Swaps[c.at]
		// Adjacent transpositions are involutions: applying a crossing's
		// swaps in reverse order undoes it.
		for i := len(sw) - 1; i >= 0; i-- {
			pos := sw[i]
			c.perm[pos], c.perm[pos+1] = c.perm[pos+1], c.perm[pos]
		}
	}
	return append([]int(nil), c.perm...), nil
}
