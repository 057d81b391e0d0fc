package shard

import (
	"context"
	"fmt"

	"aqverify/internal/core"
	"aqverify/internal/geometry"
	"aqverify/internal/itree"
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/record"
)

// Set is a domain-sharded deployment: one built IFMH-tree per sub-box of
// the plan, all signed by the same owner key over the same record table.
type Set struct {
	Plan  Plan
	Trees []*core.Tree
}

// Build constructs the K shard trees concurrently. p is the single-tree
// build configuration; p.Domain must equal plan.Domain, and each shard's
// tree is built with its sub-box substituted for it. Every shard reuses
// p.Workers for its own internal worker pool, so on a large machine the
// effective parallelism is K × Workers; shard builds are independent and
// could equally run on K different machines.
//
// For univariate templates the O(n²) pairwise-intersection enumeration
// runs once and is partitioned across shards by the half-open ownership
// rule of itree.PairsPartition1D, instead of once per shard.
// Intersection insertion order is shuffled per shard with a seed derived
// from p.Seed and the shard index, keeping builds reproducible.
func Build(tbl record.Table, p core.Params, plan Plan) (*Set, error) {
	return BuildCtx(context.Background(), tbl, p, plan, nil)
}

// PerShardProgress derives shard i's stage callback (core.Params.Progress)
// for a set build; it may return nil to leave a shard unobserved. The
// returned callbacks run on the K concurrent shard-build goroutines.
type PerShardProgress func(shard int) func(core.Stage, int)

// BuildCtx is Build with cooperative cancellation and optional per-shard
// progress attribution. A done ctx stops unstarted shard builds from
// launching and cancels the in-flight ones (each core.BuildCtx aborts
// between chunks), returning ctx.Err().
func BuildCtx(ctx context.Context, tbl record.Table, p core.Params, plan Plan, progress PerShardProgress) (*Set, error) {
	buckets, err := shardBuckets(ctx, tbl, p, plan)
	if err != nil {
		return nil, err
	}

	s := &Set{Plan: plan, Trees: make([]*core.Tree, plan.K())}
	errs := make([]error, plan.K())
	// A caller's hasher reports to one unsynchronised counter, so each
	// concurrent shard build counts into its own and the counts are
	// merged after the join, the way core's worker pools do.
	var ctrs []metrics.Counter
	if p.Hasher != nil {
		ctrs = make([]metrics.Counter, plan.K())
	}
	runErr := pool.RunCtx(ctx, plan.K(), plan.K(), func(_, i int) {
		sp := shardParams(p, plan, buckets, i)
		if progress != nil {
			sp.Progress = progress(i)
		}
		if ctrs != nil {
			sp.Hasher = p.Hasher.WithCounter(&ctrs[i])
		}
		tree, err := core.BuildCtx(ctx, tbl, sp)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		s.Trees[i] = tree
	})
	if ctrs != nil {
		main := p.Hasher.Counter()
		for i := range ctrs {
			main.Add(ctrs[i])
		}
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	if runErr != nil {
		return nil, runErr
	}
	if ctrs != nil {
		for _, tree := range s.Trees {
			tree.SetHasher(p.Hasher)
		}
	}
	return s, nil
}

// BuildOne constructs shard i's tree alone — the entry point for a
// multi-process deployment, where each process builds and serves only
// its own shard. The result is the same tree Build would have placed at
// index i: the global intersection enumeration is partitioned with the
// same half-open ownership rule, and the shard's seed derives from
// p.Seed and i exactly as in Build, so a vqserve per shard and a
// single-process K-shard set answer byte-for-byte identically.
func BuildOne(tbl record.Table, p core.Params, plan Plan, i int) (*core.Tree, error) {
	return BuildOneCtx(context.Background(), tbl, p, plan, i)
}

// BuildOneCtx is BuildOne with cooperative cancellation threaded through
// the global enumeration and every construction stage.
func BuildOneCtx(ctx context.Context, tbl record.Table, p core.Params, plan Plan, i int) (*core.Tree, error) {
	if i < 0 || i >= plan.K() {
		return nil, fmt.Errorf("shard: index %d out of range for a %d-shard plan", i, plan.K())
	}
	buckets, err := shardBuckets(ctx, tbl, p, plan)
	if err != nil {
		return nil, err
	}
	tree, err := core.BuildCtx(ctx, tbl, shardParams(p, plan, buckets, i))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", i, err)
	}
	return tree, nil
}

// shardBuckets validates the build inputs and partitions the global
// intersection enumeration across the plan's sub-boxes (1-D templates
// only; multivariate shards enumerate per sub-box inside core.Build).
// A caller that already holds the whole-domain enumeration — the build
// plane shares one with its cut planner — passes it through p.Inters1D
// and only pays a linear re-bucketing pass; otherwise the O(n²) scan
// runs here, sharded across p.Workers goroutines.
func shardBuckets(ctx context.Context, tbl record.Table, p core.Params, plan Plan) ([][]itree.Intersection, error) {
	if plan.K() == 0 {
		return nil, fmt.Errorf("shard: empty plan; use NewPlan")
	}
	if !sameBox(p.Domain, plan.Domain) {
		return nil, fmt.Errorf("shard: plan covers %v-%v but Params.Domain is %v-%v",
			plan.Domain.Lo, plan.Domain.Hi, p.Domain.Lo, p.Domain.Hi)
	}
	if p.Template.Dim() != 1 {
		if p.Inters1D != nil {
			return nil, fmt.Errorf("shard: Params.Inters1D applies to univariate templates only")
		}
		return make([][]itree.Intersection, plan.K()), nil
	}
	if p.Inters1D != nil {
		return itree.PartitionInters1D(p.Inters1D, plan.Domain, plan.Cuts)
	}
	if err := p.Template.Validate(tbl.Schema.Arity()); err != nil {
		return nil, err
	}
	fs, err := p.Template.InterpretTable(tbl)
	if err != nil {
		return nil, err
	}
	return itree.PairsPartition1DCtx(ctx, fs, plan.Domain, plan.Cuts, p.Workers)
}

// shardParams derives shard i's build configuration from the set-wide
// one: the sub-box domain, a seed derived from the shard index, and the
// shard's intersection bucket.
func shardParams(p core.Params, plan Plan, buckets [][]itree.Intersection, i int) core.Params {
	sp := p
	sp.Domain = plan.Boxes[i]
	sp.Seed = p.Seed + int64(i)
	sp.Inters1D = buckets[i]
	if sp.Inters1D == nil && p.Template.Dim() == 1 {
		// An interior shard may legitimately own zero
		// intersections; distinguish that from "enumerate for me".
		sp.Inters1D = []itree.Intersection{}
	}
	return sp
}

// NumShards returns the shard count.
func (s *Set) NumShards() int { return len(s.Trees) }

// NumRecords returns the database size (every shard holds the full
// table; the split is over the domain, not the rows).
func (s *Set) NumRecords() int { return s.Trees[0].NumRecords() }

// Mode returns the signing scheme shared by every shard.
func (s *Set) Mode() core.Mode { return s.Trees[0].Mode() }

// Public returns the parameters the owner publishes for clients — the
// same bundle for every shard, which is what makes sharding transparent
// to verifying clients.
func (s *Set) Public() core.PublicParams { return s.Trees[0].Public() }

// Stats returns each shard's structure footprint, index-aligned with
// Plan.Boxes.
func (s *Set) Stats() []core.Stats {
	out := make([]core.Stats, len(s.Trees))
	for i, t := range s.Trees {
		out[i] = t.Stats()
	}
	return out
}

// SignatureCount sums the owner signatures across shards (K for
// one-signature mode, the total subdomain count for multi-signature).
func (s *Set) SignatureCount() int {
	n := 0
	for _, t := range s.Trees {
		n += t.SignatureCount()
	}
	return n
}

// NumSubdomains sums the subdomain (FMH-tree) count across shards.
func (s *Set) NumSubdomains() int {
	n := 0
	for _, t := range s.Trees {
		n += t.NumSubdomains()
	}
	return n
}

// sameBox reports whether two boxes have identical corners.
func sameBox(a, b geometry.Box) bool {
	if a.Dim() != b.Dim() {
		return false
	}
	for i := range a.Lo {
		if a.Lo[i] != b.Lo[i] || a.Hi[i] != b.Hi[i] {
			return false
		}
	}
	return true
}
