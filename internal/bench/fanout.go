package bench

import (
	"context"
	"fmt"
	"math/rand"
	"net/http/httptest"
	"time"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/cache"
	"aqverify/internal/core"
	"aqverify/internal/front"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/shard"
	"aqverify/internal/transport"
	"aqverify/internal/wire"
	"aqverify/internal/workload"
)

// fanoutScaling compares the two shard deployments the unified query
// plane offers: the single-process sharded server (one process, K trees
// behind shard-grouped batch dispatch) against the K-process fanout
// (one HTTP server per shard behind a front.DialFront front-end with one
// replica per shard, the vqfront topology, here on httptest loopback
// listeners). Both answer
// the same batch; the figure reports batch throughput and cross-checks
// the answers record for record. On a 1-CPU host the fanout column
// mostly prices the HTTP hop — the deployment buys per-shard machines,
// not single-core speed; see EXPERIMENTS.md for the protocol.
func fanoutScaling(ctx context.Context, h *Harness) (*Table, error) {
	exchange := "buffered POST /query/batch per shard"
	if h.Cfg.Stream {
		exchange = "pipelined POST /query/stream per shard (-stream)"
	}
	if h.Cfg.Cache {
		exchange += "; front-end cache tier on (-cache): the timed warm batch is answered from the whole-answer cache"
	}
	t := &Table{
		ID:    "fanoutF1",
		Title: "Fanout: single-process sharded vs K-process front-end batch throughput",
		Columns: []string{"n", "K", "batch", "sharded-qps", "fanout-qps",
			"fanout/sharded", "identity"},
		Notes: []string{h.schemeNote(),
			"fanout = one HTTP server per shard (loopback) behind a routing front-end; sharded = one in-process server hosting all K trees",
			"fanout exchange: " + exchange,
			"identity: both deployments answer the same batch record-for-record"},
	}
	batchN := 8 * h.Cfg.Reps
	for _, n := range h.Cfg.AblationSizes {
		tbl, dom, err := workload.Lines(workload.LinesConfig{
			N: n, Seed: h.Cfg.Seed, Dist: h.Cfg.Dist, Density: h.Cfg.Density,
		})
		if err != nil {
			return nil, err
		}
		spec := build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: h.signer}
		qs := fanoutBatch(dom, batchN, h.Cfg.Seed)
		for _, k := range h.Cfg.ShardCounts {
			res, err := build.Outsource(ctx, spec,
				build.WithMode(core.MultiSignature),
				build.WithShuffle(h.Cfg.Seed),
				build.WithWorkers(h.Cfg.Workers),
				build.WithShards(k, 0))
			if err != nil {
				return nil, fmt.Errorf("bench: n=%d K=%d: %w", n, k, err)
			}
			set := res.Set

			shardedQPS, shardedAns, err := timeShardedBatch(ctx, set, qs)
			if err != nil {
				return nil, err
			}
			fanoutQPS, fanoutAns, err := timeFanoutBatch(ctx, set, qs, h.Cfg.Stream, h.Cfg.Cache)
			if err != nil {
				return nil, err
			}
			identity := "ok"
			if !sameAnswers(shardedAns, fanoutAns) {
				identity = "MISMATCH"
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(k), fmt.Sprint(len(qs)),
				fmt.Sprintf("%.0f", shardedQPS), fmt.Sprintf("%.0f", fanoutQPS),
				fmt.Sprintf("%.2f", fanoutQPS/shardedQPS), identity)
		}
	}
	return t, nil
}

// fanoutBatch spreads every query kind across the domain, cuts
// included implicitly by the uniform sweep.
func fanoutBatch(dom geometry.Box, n int, seed int64) []query.Query {
	rng := rand.New(rand.NewSource(seed))
	qs := make([]query.Query, 0, n)
	for len(qs) < n {
		x := geometry.Point{dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])}
		switch len(qs) % 4 {
		case 0:
			qs = append(qs, query.NewTopK(x, 1+rng.Intn(8)))
		case 1:
			qs = append(qs, query.NewBottomK(x, 1+rng.Intn(8)))
		case 2:
			qs = append(qs, query.NewRange(x, -2, 2))
		default:
			qs = append(qs, query.NewKNN(x, 1+rng.Intn(8), rng.NormFloat64()))
		}
	}
	return qs
}

// timeShardedBatch answers the batch on a single-process sharded server
// and returns throughput plus the raw answers.
func timeShardedBatch(ctx context.Context, set *shard.Set, qs []query.Query) (float64, []backend.Answer, error) {
	sb, err := server.NewShardedIFMH(set)
	if err != nil {
		return 0, nil, err
	}
	srv, err := server.New(sb)
	if err != nil {
		return 0, nil, err
	}
	// Warm once, then time.
	srv.QueryBatch(ctx, qs)
	start := time.Now()
	answers, errs := srv.QueryBatch(ctx, qs)
	secs := time.Since(start).Seconds()
	for i, e := range errs {
		if e != nil {
			return 0, nil, fmt.Errorf("bench: sharded batch item %d: %w", i, e)
		}
	}
	return float64(len(qs)) / secs, answers, nil
}

// timeFanoutBatch serves each shard tree on its own loopback HTTP
// server, composes them with the vqfront dial path, and times the same
// batch through the front-end — over one buffered batch exchange per
// shard, or (stream) over the pipelined wire transport, with (cached)
// the front-end wrapped in the cache tier, the vqfront -cache topology.
func timeFanoutBatch(ctx context.Context, set *shard.Set, qs []query.Query, stream, cached bool) (float64, []backend.Answer, error) {
	groups := make([][]string, set.NumShards())
	servers := make([]*httptest.Server, set.NumShards())
	defer func() {
		for _, ts := range servers {
			if ts != nil {
				ts.Close()
			}
		}
	}()
	for i, tree := range set.Trees {
		srv, err := server.New(server.IFMH{Tree: tree})
		if err != nil {
			return 0, nil, err
		}
		hd, err := transport.NewIFMHHandler(srv, tree.Public())
		if err != nil {
			return 0, nil, err
		}
		servers[i] = httptest.NewServer(hd)
		groups[i] = []string{servers[i].URL}
	}
	f, _, err := front.DialFront(groups, nil, front.Options{ProbeEvery: -1})
	if err != nil {
		return 0, nil, err
	}
	defer f.Close()
	var fe backend.Backend = f
	if cached {
		if fe, err = cache.Wrap(f); err != nil {
			return 0, nil, err
		}
	}
	run := func(qs []query.Query) ([]backend.Answer, []error) {
		if !stream {
			return fe.QueryBatch(ctx, qs)
		}
		answers := make([]backend.Answer, len(qs))
		errs := make([]error, len(qs))
		for i, r := range fe.QueryStream(ctx, qs) {
			answers[i], errs[i] = r.Answer, r.Err
		}
		return answers, errs
	}
	run(qs) // warm once, then time
	start := time.Now()
	answers, errs := run(qs)
	secs := time.Since(start).Seconds()
	for i, e := range errs {
		if e != nil {
			return 0, nil, fmt.Errorf("bench: fanout batch item %d: %w", i, e)
		}
	}
	return float64(len(qs)) / secs, answers, nil
}

// decodeIDs extracts the result record IDs from one serialized answer.
func decodeIDs(raw []byte) ([]uint64, error) {
	ans, err := wire.DecodeIFMH(raw)
	if err != nil {
		return nil, err
	}
	ids := make([]uint64, len(ans.Records))
	for i, r := range ans.Records {
		ids[i] = r.ID
	}
	return ids, nil
}

// sameAnswers compares two answer sets' decoded record IDs.
func sameAnswers(a, b []backend.Answer) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		ra, err := decodeIDs(a[i].Raw)
		if err != nil {
			return false
		}
		rb, err := decodeIDs(b[i].Raw)
		if err != nil {
			return false
		}
		if len(ra) != len(rb) {
			return false
		}
		for j := range ra {
			if ra[j] != rb[j] {
				return false
			}
		}
	}
	return true
}
