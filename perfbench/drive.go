package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/core"
	"aqverify/internal/metrics"
	"aqverify/internal/pool"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

const (
	topK       = 10
	rangeSize  = 10
	knnK       = 10
	streamSize = 64 // queries per stream request
	batchSize  = 8  // queries per churn batch request
	// refEvery is the sampling rate of the reference check: about one
	// verified answer in refEvery is re-executed locally.
	refEvery = 64
)

// queryPool hands out generated queries in order, each once. A run that
// outlasts the pool wraps around and counts how often it did. The pool
// holds no pointers (each query's point lives in one flat coordinate
// array), so the garbage collector has nothing of it to scan: the pool's
// size, which grows with the run length, leaves the collector's work per
// cycle to the program under test.
type queryPool struct {
	qs    []poolQuery
	xs    []float64 // the points, dim coordinates per query
	dim   int
	next  atomic.Int64
	wraps atomic.Int64
}

// poolQuery is a query.Query without its point.
type poolQuery struct {
	kind    query.Kind
	k       int
	l, u, y float64
}

// genPool draws perKind top-k, range and KNN queries uniformly inside the
// domain from the seed and interleaves them, so every request mixes the
// three kinds in equal thirds.
func genPool(d *deployment, seed int64, perKind int) (*queryPool, error) {
	tbl, tpl, dom := d.spec.Table, d.spec.Template, d.spec.Domain
	cfg := func(s int64, n int) workload.QueryConfig {
		return workload.QueryConfig{Count: n, Seed: seed*16 + s, K: topK, ResultSize: rangeSize}
	}
	tops := workload.TopK(dom, cfg(1, perKind))
	knnCfg := cfg(2, perKind)
	knnCfg.K, knnCfg.ResultSize = knnK, 0
	knns, err := workload.KNN(tbl, tpl, dom, knnCfg)
	if err != nil {
		return nil, err
	}
	// Range generation sorts the table's scores per query; split it over
	// two goroutines, one per CPU of the target machine.
	half := perKind / 2
	parts := [2][]query.Query{}
	errs := [2]error{}
	var wg sync.WaitGroup
	for i, n := range []int{half, perKind - half} {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := cfg(int64(3+i), n)
			c.K = 0
			parts[i], errs[i] = workload.Ranges(tbl, tpl, dom, c)
		}()
	}
	wg.Wait()
	if err := errors.Join(errs[:]...); err != nil {
		return nil, err
	}
	ranges := append(parts[0], parts[1]...)
	dim := len(tops[0].X)
	p := &queryPool{
		qs:  make([]poolQuery, 0, 3*perKind),
		xs:  make([]float64, 0, 3*perKind*dim),
		dim: dim,
	}
	for i := 0; i < perKind; i++ {
		for _, q := range []query.Query{tops[i], ranges[i], knns[i]} {
			p.qs = append(p.qs, poolQuery{q.Kind, q.K, q.L, q.U, q.Y})
			p.xs = append(p.xs, q.X...)
		}
	}
	return p, nil
}

// take returns the next n queries and the pool index of the first.
func (p *queryPool) take(n int) (int64, []query.Query) {
	first := p.next.Add(int64(n)) - int64(n)
	lo := int(first % int64(len(p.qs)))
	if lo+n >= len(p.qs) {
		p.wraps.Add(1)
	}
	qs := make([]query.Query, n)
	for i := range qs {
		j := (lo + i) % len(p.qs)
		c := p.qs[j]
		x := p.xs[j*p.dim : (j+1)*p.dim : (j+1)*p.dim]
		qs[i] = query.Query{Kind: c.kind, X: x, K: c.k, L: c.l, U: c.u, Y: c.y}
	}
	return first, qs
}

// timeline fixes the measured window [start, end). Requests are
// classified by when they start. A traced run traces none of the first
// half and every other request of each client in the second half, so
// traced and untraced requests share the same stretch of machine time.
type timeline struct {
	start, mid, end time.Time
	traced          bool
}

// tracedAt reports whether a client's k-th request, starting at t, is
// traced.
func (tl timeline) tracedAt(t time.Time, k int) bool {
	return tl.traced && !t.Before(tl.mid) && k%2 == 1
}

// sample records a request that started at t.
func (tl timeline) sample(t time.Time, dur, first time.Duration, answers int, ctr *metrics.Counter, traced bool) reqSample {
	return reqSample{t.Sub(tl.start), dur, first, answers, ctr.Bytes, ctr.Hashes, traced}
}

// reqSample is one completed request. It holds no pointers, so a run's
// growing list of samples adds nothing for the garbage collector to
// scan.
type reqSample struct {
	at         time.Duration // start, since the window's start (negative in the warm-up)
	dur, first time.Duration
	answers    int
	bytes      uint64 // answer bytes received
	hashes     uint64 // hashes the client's verification computed
	traced     bool
}

// refSample is a verified answer kept for the reference check.
type refSample struct {
	q     query.Query
	ids   []uint64
	epoch uint64
}

// tally is what one client goroutine observed.
type tally struct {
	samples   []reqSample
	attempted int
	failed    int
	refs      []refSample
	stale     int // items answered under a newer epoch than the pin
	refreshes []time.Duration
}

func (t *tally) merge(o *tally) {
	t.samples = append(t.samples, o.samples...)
	t.attempted += o.attempted
	t.failed += o.failed
	t.refs = append(t.refs, o.refs...)
	t.stale += o.stale
	t.refreshes = append(t.refreshes, o.refreshes...)
}

var reportedFailures atomic.Int32

// fail counts n failed items and reports the first few causes.
func (t *tally) fail(n int, err error) {
	t.failed += n
	if reportedFailures.Add(1) <= 5 {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", err)
	}
}

// sampled reports whether the answer at pool index idx is re-executed
// by the reference check, a seeded one-in-refEvery choice.
func sampled(seed, idx int64) bool {
	z := uint64(seed)*0x9e3779b97f4a7c15 + uint64(idx)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return z%refEvery == 0
}

func (t *tally) keep(seed, idx int64, q query.Query, recs []record.Record, epoch uint64) {
	if !sampled(seed, idx) {
		return
	}
	ids := make([]uint64, len(recs))
	for i, r := range recs {
		ids[i] = r.ID
	}
	t.refs = append(t.refs, refSample{q, ids, epoch})
}

// decodeTraced and checkTraced do what backend.WithVerify does to one
// raw answer, as separate public calls, each in its own span under the
// request: decode and the query echo check, then core.Verify.
func decodeTraced(rec *recorder, req uint64, q query.Query, raw []byte) (*core.Answer, error) {
	s := rec.begin("wire.decode", req, req)
	a, err := wire.DecodeIFMH(raw)
	rec.finish(s)
	if err != nil {
		return nil, fmt.Errorf("perfbench: %w: %v", core.ErrVerification, err)
	}
	s = rec.begin("query.echo", req, req)
	same := query.Equal(q, a.Query)
	rec.finish(s)
	if !same {
		return nil, fmt.Errorf("perfbench: %w: server answered a different query", core.ErrVerification)
	}
	return a, nil
}

func checkTraced(rec *recorder, req uint64, pub core.PublicParams, q query.Query, a *core.Answer, ctr *metrics.Counter) error {
	s := rec.begin("core.verify", req, req)
	p := pub
	p.Verifier = tracedVerifier{pub.Verifier, rec, req, s.id}
	err := core.Verify(p, q, a.Records, &a.VO, ctr)
	rec.finish(s)
	return err
}

func verifyTraced(rec *recorder, req uint64, pub core.PublicParams, q query.Query, raw []byte, ctr *metrics.Counter) ([]record.Record, error) {
	a, err := decodeTraced(rec, req, q, raw)
	if err != nil {
		return nil, err
	}
	if err := checkTraced(rec, req, pub, q, a, ctr); err != nil {
		return nil, err
	}
	return a.Records, nil
}

// batchVerifyTraced is the traced form of verifying one batch as
// backend.FinishBatch does: decode each answer in turn, then verify the
// decoded ones across pool.Workers(0, n) goroutines.
func batchVerifyTraced(rec *recorder, req uint64, pub core.PublicParams, qs []query.Query,
	answers []backend.Answer, errs []error, ctr *metrics.Counter) [][]record.Record {
	recs := make([][]record.Record, len(qs))
	decoded := make([]*core.Answer, len(qs))
	var idx []int
	for i := range qs {
		if errs[i] != nil {
			continue
		}
		if decoded[i], errs[i] = decodeTraced(rec, req, qs[i], answers[i].Raw); errs[i] == nil {
			idx = append(idx, i)
		}
	}
	if len(idx) == 0 {
		return recs
	}
	workers := pool.Workers(0, len(idx))
	ctrs := make([]metrics.Counter, workers)
	pool.Run(len(idx), workers, func(w, j int) {
		i := idx[j]
		if errs[i] = checkTraced(rec, req, pub, qs[i], decoded[i], &ctrs[w]); errs[i] == nil {
			recs[i] = decoded[i].Records
		}
	})
	for _, c := range ctrs {
		ctr.Add(c)
	}
	return recs
}

// rootSpan opens the span of one whole request; its id is the request id.
func rootSpan(rec *recorder) span {
	s := rec.begin("request", 0, 0)
	s.req = s.id
	return s
}

// driveStream runs the closed loop of stream-multisig-front: one client
// streaming batches of streamSize verified queries.
func driveStream(ctx context.Context, d *deployment, pool *queryPool, tl timeline, rec *recorder, seed int64) *tally {
	t := &tally{}
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(tl.end) {
			return t
		}
		idx, qs := pool.take(streamSize)
		var (
			ctr   metrics.Counter
			first time.Duration = -1
			ok    int
		)
		traced := tl.tracedAt(now, k)
		if traced {
			ok, first = streamTraced(ctx, d, rec, t, seed, idx, qs, &ctr, now)
		} else {
			for i, res := range d.remote.QueryStream(ctx, qs, backend.WithVerify(d.pub), backend.WithWorkers(2), backend.WithCounter(&ctr)) {
				t.attempted++
				if res.Err != nil {
					t.fail(1, res.Err)
					continue
				}
				if first < 0 {
					first = time.Since(now)
				}
				ok++
				t.keep(seed, idx+int64(i), qs[i], res.Answer.Records, res.Answer.Epoch)
			}
		}
		dur := time.Since(now)
		if ok > 0 {
			t.samples = append(t.samples, tl.sample(now, dur, first, ok, &ctr, traced))
		}
	}
}

// streamTraced is one traced stream request: the raw exchange, with each
// arriving item handed to a pool of two verifiers, as WithWorkers(2)
// does. The hand-off is unbuffered, as in the transport's own pool, so
// the frame reader waits while both verifiers are busy.
func streamTraced(ctx context.Context, d *deployment, rec *recorder, t *tally, seed, idx int64,
	qs []query.Query, ctr *metrics.Counter, start time.Time) (int, time.Duration) {
	root := rootSpan(rec)
	ex := rec.begin("client.exchange", root.id, root.id)
	type item struct {
		i     int
		raw   []byte
		epoch uint64
	}
	items := make(chan item)
	recs := make([][]record.Record, len(qs))
	errs := make([]error, len(qs))
	epochs := make([]uint64, len(qs))
	var first atomic.Int64
	first.Store(-1)
	ctrs := make([]metrics.Counter, 2)
	var wg sync.WaitGroup
	for w := range ctrs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for it := range items {
				recs[it.i], errs[it.i] = verifyTraced(rec, root.id, d.pub, qs[it.i], it.raw, &ctrs[w])
				epochs[it.i] = it.epoch
				if errs[it.i] == nil {
					first.CompareAndSwap(-1, int64(time.Since(start)))
				}
			}
		}()
	}
	for i, res := range d.remote.QueryStream(withTrace(ctx, root.id, ex.id), qs, backend.WithCounter(ctr)) {
		if res.Err != nil {
			errs[i] = res.Err
			continue
		}
		items <- item{i, res.Answer.Raw, res.Answer.Epoch}
	}
	rec.finish(ex)
	close(items)
	wg.Wait()
	rec.finish(root)
	for _, c := range ctrs {
		ctr.Add(c)
	}
	ok := 0
	for i := range qs {
		t.attempted++
		if errs[i] != nil {
			t.fail(1, errs[i])
			continue
		}
		ok++
		t.keep(seed, idx+int64(i), qs[i], recs[i], epochs[i])
	}
	return ok, time.Duration(first.Load())
}

// driveChurn runs churn-onesig: the owner publishes on its schedule from
// begin (the start of the warm-up) while the reader runs.
func driveChurn(ctx context.Context, d *deployment, pool *queryPool, tl timeline, begin time.Time, rec *recorder, seed int64) (*tally, *publisher) {
	pub := newPublisher(d, seed)
	done := make(chan struct{})
	go func() {
		defer close(done)
		pub.run(ctx, begin, tl.end)
	}()
	t := driveChurnReader(ctx, d, pool, tl, rec, seed)
	<-done
	return t, pub
}

// driveChurnReader runs the reader of churn-onesig: one client sending
// verified batches; items answered under a newer epoch are retried once
// after a Refresh.
func driveChurnReader(ctx context.Context, d *deployment, pool *queryPool, tl timeline, rec *recorder, seed int64) *tally {
	t := &tally{}
	pub := d.pub
	for k := 0; ; k++ {
		now := time.Now()
		if !now.Before(tl.end) {
			return t
		}
		idx, qs := pool.take(batchSize)
		var ctr metrics.Counter
		traced := tl.tracedAt(now, k)
		var root span
		if traced {
			root = rootSpan(rec)
		}
		batch := func(qs []query.Query) ([][]record.Record, []uint64, []error) {
			recs := make([][]record.Record, len(qs))
			epochs := make([]uint64, len(qs))
			if !traced {
				answers, errs := d.remote.QueryBatch(ctx, qs, backend.WithVerify(pub), backend.WithCounter(&ctr))
				for i, a := range answers {
					recs[i], epochs[i] = a.Records, a.Epoch
				}
				return recs, epochs, errs
			}
			ex := rec.begin("client.exchange", root.id, root.id)
			answers, errs := d.remote.QueryBatch(withTrace(ctx, root.id, ex.id), qs, backend.WithCounter(&ctr))
			rec.finish(ex)
			for i, a := range answers {
				epochs[i] = a.Epoch
			}
			return batchVerifyTraced(rec, root.id, pub, qs, answers, errs, &ctr), epochs, errs
		}
		recs, epochs, errs := batch(qs)
		ok := 0
		var stale []int
		for i, err := range errs {
			var ee *backend.EpochError
			switch {
			case errors.As(err, &ee):
				stale = append(stale, i)
			case err != nil:
				t.attempted++
				t.fail(1, err)
			default:
				t.attempted++
				ok++
				t.keep(seed, idx+int64(i), qs[i], recs[i], epochs[i])
			}
		}
		if len(stale) > 0 {
			t.stale += len(stale)
			t.attempted += len(stale)
			var rs span
			if traced {
				rs = rec.begin("client.refresh", root.id, root.id)
			}
			rt := time.Now()
			e, err := d.remote.Client().Refresh(ctx)
			t.refreshes = append(t.refreshes, time.Since(rt))
			if traced {
				rec.finish(rs)
			}
			if err != nil {
				t.fail(len(stale), err)
			} else {
				pub.Epoch = e
				retry := make([]query.Query, len(stale))
				for j, i := range stale {
					retry[j] = qs[i]
				}
				recs2, epochs2, errs2 := batch(retry)
				for j, err := range errs2 {
					if err != nil {
						t.fail(1, err)
						continue
					}
					ok++
					t.keep(seed, idx+int64(stale[j]), retry[j], recs2[j], epochs2[j])
				}
			}
		}
		if traced {
			rec.finish(root)
		}
		dur := time.Since(now)
		if ok > 0 {
			t.samples = append(t.samples, tl.sample(now, dur, dur, ok, &ctr, traced))
		}
	}
}
