package bench

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/workload"
)

// mutationBatchSizes is the mutation-batch sweep of the mutM1 figure:
// from the single-record change (the mutation plane's headline case)
// up to batches large enough that a full rebuild starts to compete.
var mutationBatchSizes = []int{1, 4, 16, 64}

// mutationScaling measures the mutation plane's central claim: applying
// a record-level mutation batch incrementally (build.Apply — dirty pair
// buckets, patched sweep boundaries, re-hashed spine, reused clean
// signatures) against re-outsourcing the mutated table from scratch,
// at the same epoch. For each ablation size and batch size it reports
// both wall-clock times and the speedup, and cross-checks sampled
// queries answered by the applied tree against the full rebuild —
// verdicts and result windows must be identical (the byte-for-byte
// identity is pinned by the build-plane tests; here it is re-sampled as
// a figure-level sanity column). Batches mix inserts, updates and
// deletes round-robin. OneSignature mode is the mutation plane's
// sweet spot — a single-record change re-signs one root instead of
// every subdomain — and the mode the protocol's headline ratio is
// quoted in (see EXPERIMENTS.md).
func mutationScaling(ctx context.Context, h *Harness) (*Table, error) {
	t := &Table{
		ID:    "mutM1",
		Title: "Mutation plane: incremental apply vs full rebuild by batch size",
		Columns: []string{"n", "batch", "apply-sec", "rebuild-sec",
			"speedup", "identity"},
		Notes: []string{h.schemeNote(),
			"apply-sec: build.Apply of the batch onto the epoch-1 tree; rebuild-sec: full Outsource of the mutated table; each the fastest of 3 runs",
			"batches mix insert/update/delete round-robin; mode=one (single root signature)",
			"identity: sampled queries answered by the applied tree match the rebuilt tree record-for-record"},
	}
	for _, n := range h.Cfg.AblationSizes {
		tbl, dom, err := workload.Lines(workload.LinesConfig{
			N: n, Seed: h.Cfg.Seed, Dist: h.Cfg.Dist, Density: h.Cfg.Density,
		})
		if err != nil {
			return nil, err
		}
		spec := build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: h.signer}
		opts := []build.Option{
			build.WithMode(core.OneSignature),
			build.WithShuffle(h.Cfg.Seed),
			build.WithWorkers(h.Cfg.Workers),
		}
		base, err := build.Outsource(ctx, spec, opts...)
		if err != nil {
			return nil, fmt.Errorf("bench: n=%d base build: %w", n, err)
		}
		for _, batch := range mutationBatchSizes {
			if batch >= n {
				continue
			}
			muts := mutationBatch(n, batch, h.Cfg.Seed)

			var applied *build.Result
			applySecs, err := fastestOf(mutationTimingRuns, func() (err error) {
				applied, err = build.Apply(ctx, base, muts...)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: n=%d batch=%d apply: %w", n, batch, err)
			}

			// The honest competitor: outsource the mutated table from
			// scratch, stamped at the same epoch.
			fullSpec := spec
			fullSpec.Table = applied.Tree.Table()
			var rebuilt *build.Result
			rebuildSecs, err := fastestOf(mutationTimingRuns, func() (err error) {
				rebuilt, err = build.Outsource(ctx, fullSpec,
					append(opts[:len(opts):len(opts)], build.WithEpoch(applied.Tree.Epoch()))...)
				return err
			})
			if err != nil {
				return nil, fmt.Errorf("bench: n=%d batch=%d rebuild: %w", n, batch, err)
			}

			identity, err := mutationIdentity(applied, rebuilt, h.Cfg.Reps, h.Cfg.Seed)
			if err != nil {
				return nil, err
			}
			t.AddRow(fmt.Sprint(n), fmt.Sprint(batch),
				fmt.Sprintf("%.4f", applySecs), fmt.Sprintf("%.4f", rebuildSecs),
				fmt.Sprintf("%.1fx", rebuildSecs/applySecs), identity)
		}
	}
	return t, nil
}

// mutationTimingRuns is how many times mutM1 runs each Apply and each
// rebuild, reporting the fastest: both leave their inputs untouched, and
// one run of a few milliseconds swings several-fold with the garbage
// collector's state.
const mutationTimingRuns = 3

// fastestOf runs fn runs times and returns the fastest run's wall time
// in seconds, or the first error.
func fastestOf(runs int, fn func() error) (float64, error) {
	best := 0.0
	for i := 0; i < runs; i++ {
		start := time.Now()
		if err := fn(); err != nil {
			return 0, err
		}
		if secs := time.Since(start).Seconds(); i == 0 || secs < best {
			best = secs
		}
	}
	return best, nil
}

// mutationBatch builds a deterministic batch of `size` mutations over
// an n-record table: inserts, updates and deletes round-robin, with
// targets spread across the table and fresh IDs above the existing
// range.
func mutationBatch(n, size int, seed int64) []build.Mutation {
	rng := rand.New(rand.NewSource(seed + int64(size)))
	used := make(map[int]bool) // Apply refuses duplicate targets
	pick := func() int {
		for {
			i := rng.Intn(n)
			if !used[i] {
				used[i] = true
				return i
			}
		}
	}
	muts := make([]build.Mutation, 0, size)
	for i := 0; i < size; i++ {
		switch i % 3 {
		case 0: // update in place
			muts = append(muts, build.Update(pick(), record.Record{
				ID:    uint64(n + 1000 + i),
				Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()},
			}))
		case 1: // insert
			muts = append(muts, build.Insert(record.Record{
				ID:    uint64(n + 2000 + i),
				Attrs: []float64{rng.NormFloat64(), rng.NormFloat64()},
			}))
		default: // delete
			muts = append(muts, build.Delete(pick()))
		}
	}
	return muts
}

// mutationIdentity answers reps random top-k queries on the applied and
// the rebuilt tree and compares verdicts and result windows.
func mutationIdentity(applied, rebuilt *build.Result, reps int, seed int64) (string, error) {
	dom := applied.Tree.Domain()
	pubA, pubR := applied.Public, rebuilt.Public
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < reps; i++ {
		x := dom.Lo[0] + rng.Float64()*(dom.Hi[0]-dom.Lo[0])
		q := query.NewTopK([]float64{x}, 1+rng.Intn(8))
		var ctr metrics.Counter
		a1, err1 := applied.Tree.Process(q, &ctr)
		a2, err2 := rebuilt.Tree.Process(q, &ctr)
		if (err1 == nil) != (err2 == nil) {
			return "MISMATCH", nil
		}
		if err1 != nil {
			continue
		}
		v1 := core.Verify(pubA, q, a1.Records, &a1.VO, &ctr)
		v2 := core.Verify(pubR, q, a2.Records, &a2.VO, &ctr)
		if v1 != nil || v2 != nil || len(a1.Records) != len(a2.Records) {
			return "MISMATCH", nil
		}
		for j := range a1.Records {
			if a1.Records[j].ID != a2.Records[j].ID {
				return "MISMATCH", nil
			}
		}
	}
	return "ok", nil
}
