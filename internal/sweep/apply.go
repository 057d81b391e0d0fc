package sweep

import (
	"context"
	"fmt"
	"math/big"
	"sort"

	"aqverify/internal/funcs"
)

// Boundary describes one boundary of a mutated arrangement for
// ApplyCtx: its alignment against the previous plan and its crossing
// pairs (in new function indexes).
type Boundary struct {
	// Old is the boundary's index in the previous plan, or -1 for a
	// brand-new breakpoint.
	Old int
	// Dirty reports whether the boundary's crossing-pair set changed.
	// Clean boundaries replay the previous plan's swaps; dirty ones are
	// re-sorted exactly.
	Dirty bool
	// Group lists the pairs crossing at the boundary.
	Group []Pair
}

// ApplyCtx computes the sweep plan of a mutated arrangement from the
// previous plan, byte-identical to a full ComputeCtx over the new
// inputs but touching exact arithmetic only where the mutation did.
//
// cleanRemap maps each previous function index to its new index (-1
// when deleted or updated), dirtyNew marks the new indexes whose
// functions are new or updated, bs aligns the new boundaries against
// the previous plan, and witnessAt returns an exact interior witness
// of new subdomain k — consulted only for subdomain 0 and the right
// neighbors of dirty boundaries.
//
// Why replay is exact: surviving functions keep their pairwise order
// through every clean boundary (a surviving pair that reordered there
// would be a surviving crossing, keeping the boundary's group alive
// and unchanged is exactly the clean case), and no dirty function can
// sit inside a clean boundary's tied run — a function between two
// functions that tie at the breakpoint ties there too, which would
// make the boundary dirty. Each clean swap of the old plan therefore
// names two surviving functions that are again adjacent in the new
// permutation, and the translated swap sequence is the one a full
// re-sort would emit. ApplyCtx verifies the adjacency at every
// translated swap and fails loudly if the alignment breaks.
func ApplyCtx(ctx context.Context, fs []funcs.Linear, old Plan, cleanRemap []int, dirtyNew []bool, bs []Boundary, witnessAt func(k int) *big.Rat) (Plan, error) {
	if len(dirtyNew) != len(fs) {
		return Plan{}, fmt.Errorf("sweep: dirty mask has %d entries for %d functions", len(dirtyNew), len(fs))
	}
	base, err := mergeBase(fs, old.BasePerm, cleanRemap, dirtyNew, witnessAt(0))
	if err != nil {
		return Plan{}, err
	}
	plan := Plan{BasePerm: base, Swaps: make([][]int, len(bs))}

	perm := append([]int(nil), base...)
	inv := funcs.InversePerm(perm)
	// The old plan is replayed alongside: oldPerm tracks the previous
	// arrangement's permutation so that old swap positions can be
	// decoded into the functions they moved. Boundaries of the old plan
	// that died (every crossing pair involved a mutated function) are
	// replayed too — they reorder mutated functions within oldPerm, and
	// skipping them would desynchronize the decode.
	oldPerm := append([]int(nil), old.BasePerm...)
	oldAt := 0 // next old boundary to replay
	replayOld := func(upto int) error {
		for ; oldAt < upto; oldAt++ {
			if oldAt >= len(old.Swaps) {
				return fmt.Errorf("sweep: alignment references old boundary %d of %d", oldAt, len(old.Swaps))
			}
			for _, p := range old.Swaps[oldAt] {
				oldPerm[p], oldPerm[p+1] = oldPerm[p+1], oldPerm[p]
			}
		}
		return nil
	}

	for k, b := range bs {
		if err := ctx.Err(); err != nil {
			return Plan{}, err
		}
		if len(b.Group) == 0 {
			return Plan{}, fmt.Errorf("sweep: boundary %d has no crossing pairs", k)
		}
		if b.Old >= 0 {
			if err := replayOld(b.Old); err != nil {
				return Plan{}, err
			}
		}
		if b.Dirty {
			swaps, err := applyCrossing(fs, perm, inv, b.Group, witnessAt(k+1))
			if err != nil {
				return Plan{}, fmt.Errorf("sweep: boundary %d: %w", k, err)
			}
			plan.Swaps[k] = swaps
			if b.Old >= 0 {
				if err := replayOld(b.Old + 1); err != nil {
					return Plan{}, err
				}
			}
			continue
		}
		// Clean boundary: translate the old swaps. Each old position
		// names two surviving functions that must be adjacent in the
		// new permutation; the new position is where they sit now.
		if b.Old < 0 {
			return Plan{}, fmt.Errorf("sweep: boundary %d is clean but has no previous boundary", k)
		}
		oldSwaps := old.Swaps[b.Old]
		swaps := make([]int, 0, len(oldSwaps))
		for _, p := range oldSwaps {
			if p < 0 || p+1 >= len(oldPerm) {
				return Plan{}, fmt.Errorf("sweep: old swap position %d out of range", p)
			}
			x, y := oldPerm[p], oldPerm[p+1]
			nx, ny := cleanRemap[x], cleanRemap[y]
			if nx < 0 || ny < 0 {
				return Plan{}, fmt.Errorf("sweep: clean boundary %d swaps mutated function", k)
			}
			np := inv[nx]
			if inv[ny] != np+1 {
				return Plan{}, fmt.Errorf("sweep: clean boundary %d: functions %d,%d not adjacent after remap", k, nx, ny)
			}
			swaps = append(swaps, np)
			oldPerm[p], oldPerm[p+1] = oldPerm[p+1], oldPerm[p]
			perm[np], perm[np+1] = perm[np+1], perm[np]
			inv[perm[np]], inv[perm[np+1]] = np, np+1
		}
		plan.Swaps[k] = swaps
		oldAt = b.Old + 1
	}
	return plan, nil
}

// mergeBase derives the new base permutation: surviving functions keep
// their previous relative order (their pairwise comparisons inside
// subdomain 0 are unchanged — any reorder would be a surviving
// breakpoint left of the first boundary), and each dirty function is
// placed by exact binary search at the new base witness. The result is
// the unique exact sorted order at w, without the O(n log n) full sort.
func mergeBase(fs []funcs.Linear, oldBase []int, cleanRemap []int, dirtyNew []bool, w *big.Rat) ([]int, error) {
	survivors := make([]int, 0, len(oldBase))
	for _, f := range oldBase {
		if f < 0 || f >= len(cleanRemap) {
			return nil, fmt.Errorf("sweep: old base references function %d outside the remap", f)
		}
		if nf := cleanRemap[f]; nf >= 0 {
			survivors = append(survivors, nf)
		}
	}
	var dirty []int
	for f, d := range dirtyNew {
		if d {
			dirty = append(dirty, f)
		}
	}
	if len(survivors)+len(dirty) != len(fs) {
		return nil, fmt.Errorf("sweep: %d survivors + %d dirty != %d functions", len(survivors), len(dirty), len(fs))
	}
	// Order the dirty functions among themselves exactly, then find
	// each one's insertion point among the survivors; ties place the
	// smaller function index first, matching funcs.SortAtRat.
	wp := funcs.NewRatPoint(w)
	sort.Slice(dirty, func(a, b int) bool {
		return rankLess(fs[dirty[a]], fs[dirty[b]], wp)
	})
	at := make([]int, len(dirty)) // insertion index into survivors
	for i, f := range dirty {
		at[i] = sort.Search(len(survivors), func(s int) bool {
			return rankLess(fs[f], fs[survivors[s]], wp)
		})
	}
	out := make([]int, 0, len(fs))
	di := 0
	for s := 0; s <= len(survivors); s++ {
		for di < len(dirty) && at[di] == s {
			out = append(out, dirty[di])
			di++
		}
		if s < len(survivors) {
			out = append(out, survivors[s])
		}
	}
	return out, nil
}
