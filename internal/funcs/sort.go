package funcs

import "sort"

// sortPermByScore orders perm ascending by scores[perm[i]], breaking ties
// by index so the order is a total order regardless of input.
func sortPermByScore(perm []int, scores []float64) {
	sort.Slice(perm, func(a, b int) bool {
		ia, ib := perm[a], perm[b]
		if scores[ia] != scores[ib] {
			return scores[ia] < scores[ib]
		}
		return ia < ib
	})
}

// InversePerm returns the inverse permutation: for perm[pos] = idx it
// yields inv[idx] = pos.
func InversePerm(perm []int) []int {
	inv := make([]int, len(perm))
	for pos, idx := range perm {
		inv[idx] = pos
	}
	return inv
}
