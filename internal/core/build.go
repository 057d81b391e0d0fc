package core

import (
	"context"
	"fmt"
	"math/big"

	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
	"aqverify/internal/sweep"
)

// Build constructs the IFMH-tree for a table under the given parameters,
// following the paper's four steps: build the I-tree over all pairwise
// intersections, build an FMH-tree per sorted function list, propagate
// Merkle hashes up the IMH-tree, and sign (the root, or every subdomain).
//
// Build is BuildCtx without cancellation; see there for the stage-level
// parallelism and determinism contract.
func Build(tbl record.Table, p Params) (*Tree, error) {
	return BuildCtx(context.Background(), tbl, p)
}

// BuildCtx is the context-aware construction entry point.
//
// A 1-D build sorts the exact breakpoints into an arrangement once and
// takes the sweep's crossing pairs from it. In canonical order (Shuffle
// set) it also builds the I-tree from the arrangement
// (itree.BuildCanonical1D): the tree inserting every intersection from
// the root in canonical order produces. That insertion (itree.Build)
// remains the construction for Shuffle-off and multivariate builds.
//
// Every stage with independent units is sharded across Params.Workers
// goroutines: record digesting, 1-D pairwise-intersection enumeration,
// the subdomain sweep plan, per-subdomain FMH-list construction
// (materialized 1-D and multivariate layouts), level-order IMH hash
// propagation, and multi-signature signing. The output is byte-identical
// for every worker count: every digest, swap list and signature input
// depends only on its own index, and per-worker hash counters are merged
// after each join.
//
// Cancellation is cooperative: a done ctx stops each stage's worker pool
// from claiming new chunks, the serial stages check between units, and
// BuildCtx returns ctx.Err(). Params.Progress, when set, observes every
// stage as it starts.
func BuildCtx(ctx context.Context, tbl record.Table, p Params) (*Tree, error) {
	if p.Signer == nil {
		return nil, fmt.Errorf("core: Params.Signer is required")
	}
	if tbl.Len() == 0 {
		return nil, fmt.Errorf("core: cannot outsource an empty table")
	}
	if err := p.Template.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	if p.Domain.Dim() != p.Template.Dim() {
		return nil, fmt.Errorf("core: domain is %d-D but template has %d variables",
			p.Domain.Dim(), p.Template.Dim())
	}
	h := p.Hasher
	if h == nil {
		h = hashing.New(nil)
	}

	fs, err := p.Template.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	t := &Tree{
		mode:     p.Mode,
		domain:   p.Domain,
		template: p.Template,
		hasher:   h,
		table:    tbl,
		fs:       fs,
		verifier: p.Signer.Verifier(),
		epoch:    p.Epoch,
		bp:       p,
	}
	if t.epoch == 0 {
		t.epoch = 1
	}
	t.bp.Progress = nil
	t.bp.Inters1D = nil
	workers := p.workers()
	p.progress(StageDigest, tbl.Len())
	t.recDigests = make([]hashing.Digest, tbl.Len())
	err = t.parallelChunks(ctx, workers, tbl.Len(), func(h *hashing.Hasher, lo, hi int) error {
		for i := lo; i < hi; i++ {
			t.recDigests[i] = h.Record(tbl.Records[i])
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	opt := itree.BuildOptions{Shuffle: p.Shuffle, Seed: p.Seed}
	if p.Template.Dim() == 1 {
		space, err := geometry.NewSpace1D(p.Domain)
		if err != nil {
			return nil, err
		}
		t.space = space
		inters := p.Inters1D
		if inters == nil {
			p.progress(StagePairs, tbl.Len())
			if inters, err = itree.Pairs1DCtx(ctx, fs, p.Domain, workers); err != nil {
				return nil, err
			}
		}
		p.progress(StageITree, len(inters))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if p.Shuffle {
			// The canonical tree is a pure function of the sorted
			// breakpoint arrangement, so it is built from it directly.
			// The arrangement is retained: the mutation plane merges
			// dirty pairs into it and reconstructs the next epoch's
			// tree the same way.
			if t.arr, err = itree.NewArrangement1D(space, inters, p.Seed); err != nil {
				return nil, err
			}
			t.itree, err = itree.BuildCanonical1D(space, t.arr)
		} else {
			t.itree, err = itree.Build(space, inters, opt)
		}
		if err != nil {
			return nil, err
		}
		if err := t.buildLists1D(ctx, inters, p, workers); err != nil {
			return nil, err
		}
	} else {
		space, err := geometry.NewSpaceND(p.Domain)
		if err != nil {
			return nil, err
		}
		t.space = space
		p.progress(StageITree, 0)
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		t.itree, err = itree.Build(space, itree.PairsND(fs), opt)
		if err != nil {
			return nil, err
		}
		p.progress(StageLists, len(t.itree.Subs))
		if err := t.buildListsND(ctx, workers); err != nil {
			return nil, err
		}
	}

	p.progress(StagePropagate, t.itree.NodeCount)
	if err := t.propagateHashes(ctx, workers); err != nil {
		return nil, err
	}
	if err := t.sign(ctx, p); err != nil {
		return nil, err
	}
	return t, nil
}

// progress reports one stage start to the configured callback, if any.
func (p Params) progress(stage Stage, units int) {
	if p.Progress != nil {
		p.Progress(stage, units)
	}
}

// fmhFromPerm builds a fresh FMH-tree for a permutation with the given
// hasher (a worker-local one inside parallel sections).
func (t *Tree) fmhFromPerm(h *hashing.Hasher, perm []int) (*fmh.List, error) {
	return fmh.Build(h, len(perm), func(p int) hashing.Digest {
		return h.Leaf(t.recDigests[perm[p]])
	})
}

// crossingsFromArr returns the crossing pairs of every boundary of a
// 1-D I-tree from the arrangement of its intersections: group k of the
// arrangement is boundary k, so no breakpoint needs recomputing. Member
// order is irrelevant to the sweep, which re-sorts each crossing's
// positions.
func crossingsFromArr(boundaries []*big.Rat, arr *itree.Arrangement1D) ([][]sweep.Pair, error) {
	if len(boundaries) != len(arr.Groups) {
		return nil, fmt.Errorf("core: %d boundaries but %d arrangement breakpoints", len(boundaries), len(arr.Groups))
	}
	out := make([][]sweep.Pair, len(boundaries))
	for k, b := range boundaries {
		g := arr.Groups[k]
		if b != g.T && b.Cmp(g.T) != 0 {
			return nil, fmt.Errorf("core: boundary %d (%v) is not arrangement breakpoint %v", k, b, g.T)
		}
		out[k] = groupPairs(g)
	}
	return out, nil
}

// groupPairs returns the crossing pairs of one arrangement breakpoint.
func groupPairs(g *itree.Group1D) []sweep.Pair {
	pairs := make([]sweep.Pair, len(g.Members))
	for m, in := range g.Members {
		pairs[m] = sweep.Pair{I: in.I, J: in.J}
	}
	return pairs
}

// buildLists1D computes every subdomain's sorted function list by a
// left-to-right sweep: seed the sorted order exactly (see
// sweep.ComputeCtx for how the seeding shards across workers), then cross
// each boundary by applying the adjacent transpositions of the function
// pairs intersecting there, deriving each FMH-tree persistently from its
// left neighbor.
//
// In materialized mode the sweep only replays permutations (cheap swaps);
// the S independent O(n) FMH-tree constructions — the dominant cost of
// the paper's literal layout — are then sharded across the worker pool.
// Delta mode stays serial past the base list: each persistent tree is
// derived from its left neighbor, an inherently sequential chain that is
// already O(S log n) in total.
func (t *Tree) buildLists1D(ctx context.Context, inters []itree.Intersection, p Params, workers int) error {
	space := t.space.(*geometry.Space1D)
	boundaries, err := t.itree.Boundaries1D()
	if err != nil {
		return err
	}
	arr := t.arr
	if arr == nil {
		// An insert-built tree's boundaries are, whatever the insertion
		// order, the sorted distinct in-domain breakpoints: the groups of
		// the arrangement. It is built only for the sweep, not retained.
		if arr, err = itree.NewArrangement1D(space, inters, p.Seed); err != nil {
			return err
		}
	}
	groups, err := crossingsFromArr(boundaries, arr)
	if err != nil {
		return err
	}
	witnesses := make([]*big.Rat, len(t.itree.Subs))
	for i, s := range t.itree.Subs {
		witnesses[i] = space.WitnessRat(s.Region)
	}
	p.progress(StageSweep, len(boundaries))
	plan, err := sweep.ComputeCtx(ctx, t.fs, witnesses, groups, workers)
	if err != nil {
		return err
	}
	return t.listsFromPlan(ctx, plan, p, workers)
}

// listsFromPlan builds every subdomain's FMH list from a computed sweep
// plan — the tail of buildLists1D, shared with the mutation plane's
// ApplyCtx, which derives the plan incrementally instead.
func (t *Tree) listsFromPlan(ctx context.Context, plan sweep.Plan, p Params, workers int) error {
	subs := t.itree.Subs
	t.subs = make([]*SubInfo, len(subs))
	t.plan = plan
	t.cursor = sweep.NewCursor(plan)

	perm := append([]int(nil), plan.BasePerm...)
	p.progress(StageLists, len(subs))

	boundaries := len(subs) - 1
	if p.Materialize {
		perms := make([][]int, len(subs))
		perms[0] = append([]int(nil), perm...)
		for k := 0; k < boundaries; k++ {
			for _, pos := range plan.Swaps[k] {
				perm[pos], perm[pos+1] = perm[pos+1], perm[pos]
			}
			perms[k+1] = append([]int(nil), perm...)
		}
		return t.parallelChunks(ctx, workers, len(subs), func(h *hashing.Hasher, lo, hi int) error {
			for i := lo; i < hi; i++ {
				list, err := t.fmhFromPerm(h, perms[i])
				if err != nil {
					return err
				}
				t.subs[i] = &SubInfo{Sub: subs[i], List: list, Perm: perms[i]}
			}
			return nil
		})
	}

	list, err := t.fmhFromPerm(t.hasher, perm)
	if err != nil {
		return err
	}
	t.subs[0] = &SubInfo{Sub: subs[0], List: list}
	for k := 0; k < boundaries; k++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		for _, pos := range plan.Swaps[k] {
			list, err = list.DeriveSwap(t.hasher, pos)
			if err != nil {
				return err
			}
		}
		t.subs[k+1] = &SubInfo{Sub: subs[k+1], List: list}
	}
	return nil
}

// permFor returns the sorted permutation of subdomain id: the stored
// permutation in materialized mode, or a cursor-replayed copy in delta
// mode — consulting the installed PermCache first, keyed by
// (subdomain, epoch) so a permutation materialized before a mutation
// batch can never answer for the epoch the batch produced. Either way
// the result is safe to read concurrently with other queries.
func (t *Tree) permFor(id int) ([]int, error) {
	if id < 0 || id >= len(t.subs) {
		return nil, fmt.Errorf("core: subdomain %d out of range", id)
	}
	if p := t.subs[id].Perm; p != nil {
		return p, nil
	}
	if pc := t.permCache.load(); pc != nil {
		if p, ok := pc.Get(id, t.epoch); ok {
			return p, nil
		}
		p, err := t.cursor.PermAt(id)
		if err == nil {
			pc.Put(id, t.epoch, p)
		}
		return p, err
	}
	return t.cursor.PermAt(id)
}

// buildListsND sorts each subdomain independently at an interior witness
// point — there is no sweep order to exploit in d >= 2 — and always
// materializes. The subdomains are independent, so the sort + FMH build
// shards across the worker pool.
func (t *Tree) buildListsND(ctx context.Context, workers int) error {
	subs := t.itree.Subs
	t.subs = make([]*SubInfo, len(subs))
	return t.parallelChunks(ctx, workers, len(subs), func(h *hashing.Hasher, lo, hi int) error {
		for i := lo; i < hi; i++ {
			sub := subs[i]
			w := t.space.Witness(sub.Region)
			perm := funcs.SortAt(t.fs, w)
			list, err := t.fmhFromPerm(h, perm)
			if err != nil {
				return err
			}
			t.subs[i] = &SubInfo{Sub: sub, List: list, Perm: perm}
		}
		return nil
	})
}

// propagateHashes fills every IMH node's hash bottom-up (paper §3.1 step
// 3): subdomain leaves hash their FMH root; intersection nodes bind their
// hyperplane to their children's hashes. The walk is level-parallel:
// nodes are grouped by depth and each level is sharded across the worker
// pool, deepest first, so every node's children are hashed before the
// node itself — a node's hash depends only on its own children, which
// keeps the digest byte-identical for every worker count.
func (t *Tree) propagateHashes(ctx context.Context, workers int) error {
	var levels [][]*itree.Node
	var walk func(n *itree.Node, d int)
	walk = func(n *itree.Node, d int) {
		if d == len(levels) {
			levels = append(levels, nil)
		}
		levels[d] = append(levels[d], n)
		if n.IsLeaf() {
			return
		}
		walk(n.Above, d+1)
		walk(n.Below, d+1)
	}
	walk(t.itree.Root, 0)
	for d := len(levels) - 1; d >= 0; d-- {
		level := levels[d]
		err := t.parallelChunks(ctx, workers, len(level), func(h *hashing.Hasher, lo, hi int) error {
			for _, n := range level[lo:hi] {
				if n.IsLeaf() {
					n.Hash = h.Subdomain(t.subs[n.Leaf.ID].List.Root())
				} else {
					n.Hash = h.Intersection(n.Int.H.Encode(nil), n.Above.Hash, n.Below.Hash)
				}
			}
			return nil
		})
		if err != nil {
			return err
		}
	}
	t.rootDigest = t.hasher.Root(t.itree.Root.Hash)
	return nil
}

// sign executes step 4 for the configured mode. Multi-signature mode
// shards the S independent subdomain signatures across the worker pool;
// each signed digest depends only on its own subdomain, so the signatures
// are independent of the worker count (schemes with per-signature
// randomness differ run to run regardless). Every sig.Signer is safe for
// concurrent use: the schemes are stateless apart from crypto/rand.
func (t *Tree) sign(ctx context.Context, p Params) error {
	switch p.Mode {
	case OneSignature:
		p.progress(StageSign, 1)
		if err := ctx.Err(); err != nil {
			return err
		}
		s, err := p.Signer.Sign(t.rootDigest[:])
		if err != nil {
			return fmt.Errorf("core: signing root: %w", err)
		}
		t.hasher.Counter().AddSign(1)
		t.rootSig = s
		t.sigCount = 1
	case MultiSignature:
		p.progress(StageSign, len(t.subs))
		err := t.parallelChunks(ctx, p.workers(), len(t.subs), func(h *hashing.Hasher, lo, hi int) error {
			for _, si := range t.subs[lo:hi] {
				si.Ineqs = t.space.Halfspaces(si.Sub.Region)
				si.IneqEnc = geometry.EncodeHalfspaces(nil, si.Ineqs)
				d := h.MultiSig(h.Ineqs(si.IneqEnc), si.List.Root())
				s, err := p.Signer.Sign(d[:])
				if err != nil {
					return fmt.Errorf("core: signing subdomain %d: %w", si.Sub.ID, err)
				}
				h.Counter().AddSign(1)
				si.Sig = s
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.sigCount = len(t.subs)
	default:
		return fmt.Errorf("core: unknown mode %v", p.Mode)
	}
	return nil
}
