package backend

import (
	"context"
	"fmt"
	"iter"
	"sync"

	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/shard"
	"aqverify/internal/wire"
)

// Fanout is the multi-process shard front-end: it composes K backends —
// one per sub-box of a shard plan, in vqfront the front.ReplicaSets over
// transport.Remote handles on the vqserve processes — into one logical
// database. Every query routes to
// the backend whose sub-box owns its function input (the same
// deterministic on-cut-goes-right rule shard.Router applies), batches
// are split per shard and dispatched to all owning backends
// concurrently, and the merged results stay parallel to the input.
// Answer.Shard always reports the front-end's routing choice, whatever
// the child backend attributed.
//
// A Fanout holds no mutable state; it is safe for concurrent use
// whenever its children are.
type Fanout struct {
	plan shard.Plan
	kids []Backend
	name string
}

// NewFanout composes one backend per sub-box of the plan, in shard
// order. All children must advertise the same backend name — they serve
// shards of one logical database under one published parameter bundle.
func NewFanout(plan shard.Plan, kids []Backend) (*Fanout, error) {
	if plan.K() == 0 {
		return nil, fmt.Errorf("backend: fanout needs a shard plan; use shard.NewPlan")
	}
	if len(kids) != plan.K() {
		return nil, fmt.Errorf("backend: plan has %d shards but %d backends were given", plan.K(), len(kids))
	}
	name := kids[0].Name()
	for i, k := range kids {
		if k == nil {
			return nil, fmt.Errorf("backend: shard %d backend is nil", i)
		}
		if k.Name() != name {
			return nil, fmt.Errorf("backend: shard %d serves %q, shard 0 serves %q; one logical database required",
				i, k.Name(), name)
		}
	}
	return &Fanout{plan: plan, kids: kids, name: name}, nil
}

// Plan returns the shard plan the front-end routes by.
func (f *Fanout) Plan() shard.Plan { return f.plan }

// NumShards returns the shard (child backend) count.
func (f *Fanout) NumShards() int { return f.plan.K() }

// Route returns the shard owning q — the backend Query would dispatch
// to — without contacting it.
func (f *Fanout) Route(q query.Query) (int, error) {
	if err := q.Validate(f.plan.Domain.Dim()); err != nil {
		return 0, err
	}
	return f.plan.Route(q.X)
}

// Name implements Backend.
func (f *Fanout) Name() string { return f.name }

// Epoch returns the logical database's publication epoch as seen
// through the children: the maximum epoch any child reports, 0 when no
// child reports one. During a per-shard rollout the maximum is the
// authoritative epoch — the owner publishes monotonically, so the
// highest epoch any shard serves is the newest bundle.
func (f *Fanout) Epoch() uint64 {
	var max uint64
	for _, e := range f.Epochs() {
		if e > max {
			max = e
		}
	}
	return max
}

// Epochs returns every child's publication epoch in shard order (0 for
// children that report none). Children mid-rollout may legitimately
// disagree; the lag shows up in /stats when a handler fronts the
// fanout.
func (f *Fanout) Epochs() []uint64 {
	out := make([]uint64, len(f.kids))
	for i, k := range f.kids {
		if e, ok := k.(interface{ Epoch() uint64 }); ok {
			out[i] = e.Epoch()
		}
	}
	return out
}

// Query implements Backend: route, then answer on the owning child.
func (f *Fanout) Query(ctx context.Context, q query.Query, opts ...Option) (Answer, error) {
	sh, err := f.Route(q)
	if err != nil {
		return Answer{Shard: wire.ShardNone}, err
	}
	ans, err := f.kids[sh].Query(ctx, q, opts...)
	if err != nil {
		return Answer{Shard: sh}, err // the routing choice, refused or not
	}
	ans.Shard = sh
	return ans, nil
}

// QueryBatch implements Backend: the batch is split per owning shard,
// every owning child answers its sub-batch concurrently (each through
// its own QueryBatch, so a Remote child spends one HTTP exchange per
// shard), and the answers scatter back to their original indexes.
func (f *Fanout) QueryBatch(ctx context.Context, qs []query.Query, opts ...Option) ([]Answer, []error) {
	answers := make([]Answer, len(qs))
	errs := make([]error, len(qs))
	if len(qs) == 0 {
		return answers, errs
	}
	o := buildOptions(opts)
	groups, subqs := f.group(qs, errs)
	for i, err := range errs {
		if err != nil {
			answers[i].Shard = wire.ShardNone
		}
	}
	ctrs := make([]metrics.Counter, len(f.kids))
	var wg sync.WaitGroup
	for sh, g := range groups {
		if len(g) == 0 {
			continue
		}
		wg.Add(1)
		go func(sh int, g []int, sub []query.Query) {
			defer wg.Done()
			sans, serrs := f.kids[sh].QueryBatch(ctx, sub, f.childOpts(&o, &ctrs[sh])...)
			for j, i := range g {
				answers[i], errs[i] = sans[j], serrs[j]
				answers[i].Shard = sh
			}
		}(sh, g, subqs[sh])
	}
	wg.Wait()
	for i := range ctrs {
		o.ctr.Add(ctrs[i])
	}
	return answers, errs
}

// QueryStream implements Backend: every owning child streams its
// sub-batch concurrently and the front-end merges the streams, yielding
// each item under its original index as it completes. An early break
// cancels all child streams.
func (f *Fanout) QueryStream(ctx context.Context, qs []query.Query, opts ...Option) iter.Seq2[int, BatchResult] {
	o := buildOptions(opts)
	return func(yield func(int, BatchResult) bool) {
		if len(qs) == 0 {
			return
		}
		errs := make([]error, len(qs))
		groups, subqs := f.group(qs, errs)
		// Unroutable queries complete immediately.
		for i, err := range errs {
			if err != nil && !yield(i, BatchResult{Answer: Answer{Shard: wire.ShardNone}, Err: err}) {
				return
			}
		}
		ctx, cancel := context.WithCancel(ctx)
		defer cancel()
		type indexed struct {
			i int
			r BatchResult
		}
		out := make(chan indexed)
		ctrs := make([]metrics.Counter, len(f.kids))
		var wg sync.WaitGroup
		for sh, g := range groups {
			if len(g) == 0 {
				continue
			}
			wg.Add(1)
			go func(sh int, g []int, sub []query.Query) {
				defer wg.Done()
				for j, r := range f.kids[sh].QueryStream(ctx, sub, f.childOpts(&o, &ctrs[sh])...) {
					r.Answer.Shard = sh // the front-end's routing choice, refused or not
					out <- indexed{g[j], r}
				}
			}(sh, g, subqs[sh])
		}
		go func() { wg.Wait(); close(out) }()
		broke := false
		for item := range out {
			if !broke && !yield(item.i, item.r) {
				broke = true
				cancel()
			}
		}
		for i := range ctrs {
			o.ctr.Add(ctrs[i])
		}
	}
}

// group routes a batch: groups[k] lists the batch indexes owned by shard
// k in arrival order, subqs[k] the corresponding queries, and unroutable
// indexes get their routing error written into errs.
func (f *Fanout) group(qs []query.Query, errs []error) (groups [][]int, subqs [][]query.Query) {
	groups = make([][]int, len(f.kids))
	subqs = make([][]query.Query, len(f.kids))
	for i, q := range qs {
		sh, err := f.Route(q)
		if err != nil {
			errs[i] = err
			continue
		}
		groups[sh] = append(groups[sh], i)
		subqs[sh] = append(subqs[sh], q)
	}
	return groups, subqs
}

// childOpts rebuilds the call options for one child dispatch: the worker
// bound and verification forward unchanged, but each child writes into
// its own counter, merged after the join — the caller's counter must
// only ever be touched from the calling goroutine.
func (f *Fanout) childOpts(o *options, ctr *metrics.Counter) []Option {
	opts := []Option{WithWorkers(o.workers), WithCounter(ctr)}
	if o.pub != nil {
		opts = append(opts, WithVerify(*o.pub))
	}
	return opts
}
