package main

import (
	"bufio"
	"cmp"
	"context"
	"fmt"
	"hash/maphash"
	"iter"
	"net/http"
	"os"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/front"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/sig"
)

// span is one timed call at a layer boundary. Spans of one request share
// req; parent is the span whose work caused this one (0 for a root).
type span struct {
	name       string
	id, parent uint64
	req        uint64
	start, end int64 // ns since the recorder's origin
}

// recorder keeps every span in memory until the run ends.
type recorder struct {
	origin time.Time
	ids    atomic.Uint64
	mu     sync.Mutex
	spans  []span
	// sigPairs counts distinct (digest, signature) pairs the traced
	// verifier saw, for sig.distinct_ratio.
	sigSeed  maphash.Seed
	sigPairs map[uint64]struct{}
}

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), sigSeed: maphash.MakeSeed(), sigPairs: map[uint64]struct{}{}}
}

func (r *recorder) now() int64 { return int64(time.Since(r.origin)) }

// begin opens a span; finish closes and stores it.
func (r *recorder) begin(name string, req, parent uint64) span {
	return span{name: name, id: r.ids.Add(1), parent: parent, req: req, start: r.now()}
}

func (r *recorder) finish(s span) {
	s.end = r.now()
	r.mu.Lock()
	r.spans = append(r.spans, s)
	r.mu.Unlock()
}

func (r *recorder) seeSignature(digest, signature []byte) {
	var h maphash.Hash
	h.SetSeed(r.sigSeed)
	h.Write(digest)
	h.Write(signature)
	k := h.Sum64()
	r.mu.Lock()
	r.sigPairs[k] = struct{}{}
	r.mu.Unlock()
}

// writeJSONL writes the spans, one JSON object a line.
func (r *recorder) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for _, s := range r.spans {
		fmt.Fprintf(w, `{"name":%q,"id":%d,"parent":%d,"req":%d,"start_ns":%d,"end_ns":%d}`+"\n",
			s.name, s.id, s.parent, s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// traceCtx is the request id and current span a traced call carries, in
// its context and, across HTTP, in the traceHeader.
type traceCtx struct{ req, parent uint64 }

type traceKey struct{}

const traceHeader = "Perfbench-Trace"

func withTrace(ctx context.Context, req, parent uint64) context.Context {
	return context.WithValue(ctx, traceKey{}, traceCtx{req, parent})
}

func traceFrom(ctx context.Context) (traceCtx, bool) {
	tc, ok := ctx.Value(traceKey{}).(traceCtx)
	return tc, ok
}

// propagate is the client side of the trace hop: a request whose context
// is traced carries the trace in a header.
type propagate struct{ next http.RoundTripper }

func (p propagate) RoundTrip(req *http.Request) (*http.Response, error) {
	if tc, ok := traceFrom(req.Context()); ok {
		req = req.Clone(req.Context())
		req.Header.Set(traceHeader, strconv.FormatUint(tc.req, 10)+"/"+strconv.FormatUint(tc.parent, 10))
	}
	return p.next.RoundTrip(req)
}

func (p propagate) CloseIdleConnections() {
	if c, ok := p.next.(interface{ CloseIdleConnections() }); ok {
		c.CloseIdleConnections()
	}
}

// extractTrace is the server side: the header's trace moves into the
// request context, where the traced backends find it.
func extractTrace(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if v := r.Header.Get(traceHeader); v != "" {
			a, b, _ := strings.Cut(v, "/")
			req, err1 := strconv.ParseUint(a, 10, 64)
			parent, err2 := strconv.ParseUint(b, 10, 64)
			if err1 == nil && err2 == nil {
				r = r.WithContext(withTrace(r.Context(), req, parent))
			}
		}
		h.ServeHTTP(w, r)
	})
}

// tracing records a span around each call into a served backend when the
// call's context is traced, and delegates untouched otherwise. Stream
// spans get one "<layer>.write" child per yielded item, so the time the
// HTTP handler spends writing frames is not charged to the backend.
type tracing struct {
	inner backend.Backend
	rec   *recorder
	layer string
}

func (t tracing) query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	tc, ok := traceFrom(ctx)
	if !ok {
		return t.inner.Query(ctx, q, opts...)
	}
	s := t.rec.begin(t.layer+".query", tc.req, tc.parent)
	ans, err := t.inner.Query(withTrace(ctx, tc.req, s.id), q, opts...)
	t.rec.finish(s)
	return ans, err
}

func (t tracing) queryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	tc, ok := traceFrom(ctx)
	if !ok {
		return t.inner.QueryBatch(ctx, qs, opts...)
	}
	s := t.rec.begin(t.layer+".batch", tc.req, tc.parent)
	answers, errs := t.inner.QueryBatch(withTrace(ctx, tc.req, s.id), qs, opts...)
	t.rec.finish(s)
	return answers, errs
}

func (t tracing) queryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	tc, ok := traceFrom(ctx)
	if !ok {
		return t.inner.QueryStream(ctx, qs, opts...)
	}
	return func(yield func(int, backend.BatchResult) bool) {
		s := t.rec.begin(t.layer+".stream", tc.req, tc.parent)
		defer func() { t.rec.finish(s) }()
		for i, res := range t.inner.QueryStream(withTrace(ctx, tc.req, s.id), qs, opts...) {
			w := t.rec.begin(t.layer+".write", tc.req, s.id)
			more := yield(i, res)
			t.rec.finish(w)
			if !more {
				return
			}
		}
	}
}

// tracedServer is a *server.Server whose query calls are traced; every
// other method (stats, epoch, swaps) is the server's own, so the HTTP
// handler treats it exactly like the bare server.
type tracedServer struct {
	*server.Server
	t tracing
}

func (s tracedServer) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return s.t.query(ctx, q, opts...)
}

func (s tracedServer) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return s.t.queryBatch(ctx, qs, opts...)
}

func (s tracedServer) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return s.t.queryStream(ctx, qs, opts...)
}

// tracedFront is the same decorator around a *front.Frontend, keeping its
// admission gate, /metrics families and epoch gauges visible.
type tracedFront struct {
	*front.Frontend
	t tracing
}

func (f tracedFront) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return f.t.query(ctx, q, opts...)
}

func (f tracedFront) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	return f.t.queryBatch(ctx, qs, opts...)
}

func (f tracedFront) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return f.t.queryStream(ctx, qs, opts...)
}

// tracedVerifier times every signature check of one verification as a
// child span and notes the pair it checked; it delegates every call.
type tracedVerifier struct {
	sig.Verifier
	rec         *recorder
	req, parent uint64
}

func (v tracedVerifier) Verify(digest, signature []byte) error {
	s := v.rec.begin("sig.verify", v.req, v.parent)
	err := v.Verifier.Verify(digest, signature)
	v.rec.finish(s)
	v.rec.seeSignature(digest, signature)
	return err
}

// spanStat aggregates the spans of one name.
type spanStat struct {
	n          int
	total, own int64 // summed duration and self time, ns
}

// analysis is the per-name view of a finished trace.
type analysis struct {
	byName map[string]*spanStat
	// maxChild is, per span id, the longest child span whose name starts
	// with "server." (the slowest shard under a front span).
	maxChild map[uint64]int64
	spans    []span
}

// analyse computes each span's self time: its duration minus the part of
// its interval that its children cover.
func analyse(spans []span) analysis {
	kids := map[uint64][]int{}
	for i, s := range spans {
		if s.parent != 0 {
			kids[s.parent] = append(kids[s.parent], i)
		}
	}
	a := analysis{byName: map[string]*spanStat{}, maxChild: map[uint64]int64{}, spans: spans}
	for _, s := range spans {
		var iv [][2]int64
		for _, k := range kids[s.id] {
			c := spans[k]
			lo, hi := max(c.start, s.start), min(c.end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
			if strings.HasPrefix(c.name, "server.") && c.end-c.start > a.maxChild[s.id] {
				a.maxChild[s.id] = c.end - c.start
			}
		}
		st := a.byName[s.name]
		if st == nil {
			st = &spanStat{}
			a.byName[s.name] = st
		}
		st.n++
		st.total += s.end - s.start
		st.own += s.end - s.start - covered(iv)
	}
	return a
}

// covered is the length of the union of the intervals.
func covered(iv [][2]int64) int64 {
	slices.SortFunc(iv, func(x, y [2]int64) int { return cmp.Compare(x[0], y[0]) })
	var sum, end int64
	for _, v := range iv {
		if v[1] <= end {
			continue
		}
		sum += v[1] - max(v[0], end)
		end = v[1]
	}
	return sum
}

func (a analysis) stat(name string) spanStat {
	if st := a.byName[name]; st != nil {
		return *st
	}
	return spanStat{}
}

// selfPer and totalPer return the summed self or total time of the named
// spans, in µs, divided by per.
func (a analysis) selfPer(name string, per float64) float64 {
	return ratio(float64(a.stat(name).own)/1e3, per)
}

func (a analysis) totalPer(name string, per float64) float64 {
	return ratio(float64(a.stat(name).total)/1e3, per)
}

// hopMs is the mean, over spans of the named layer, of the span's
// duration minus its slowest "server." child, in ms.
func (a analysis) hopMs(name string) float64 {
	var sum float64
	n := 0
	for _, s := range a.spans {
		if s.name == name {
			sum += float64(s.end - s.start - a.maxChild[s.id])
			n++
		}
	}
	return ratio(sum/1e6, float64(n))
}
