package build

import (
	"context"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/record"
	"aqverify/internal/workload"
)

// TestShardedApplyHasherCounts applies one mutation batch to a 4-shard
// product built on one caller-supplied hasher. Under -race it checks
// that the concurrent shard applies no longer share the hasher's
// counter; in any run the work the apply counts on the caller's counter
// must equal the sum of the same batch applied to each shard built
// alone, and the new epoch's trees must count later work on the
// caller's counter again.
func TestShardedApplyHasherCounts(t *testing.T) {
	ctx := context.Background()
	spec := testSpec(t, 120, 3, workload.Gaussian)
	opts := func(h *hashing.Hasher, extra ...Option) []Option {
		return append([]Option{
			WithMode(core.MultiSignature), WithShuffle(1), WithWorkers(2),
			WithShards(4, 0), WithHasher(h),
		}, extra...)
	}
	batch := []Mutation{
		Insert(record.Record{ID: 1 << 20, Attrs: []float64{0.3, -0.2}}),
		Delete(5),
	}
	// applied counts the work of one Apply of batch on prev into ctr.
	applied := func(ctr *metrics.Counter, prev *Result) (*Result, metrics.Counter) {
		t.Helper()
		before := *ctr
		next, err := Apply(ctx, prev, batch...)
		if err != nil {
			t.Fatal(err)
		}
		return next, metrics.Counter{
			Hashes:    ctr.Hashes - before.Hashes,
			HashBytes: ctr.HashBytes - before.HashBytes,
			SigSigns:  ctr.SigSigns - before.SigSigns,
		}
	}

	var set metrics.Counter
	prev, err := Outsource(ctx, spec, opts(hashing.New(&set))...)
	if err != nil {
		t.Fatal(err)
	}
	next, got := applied(&set, prev)

	var sum metrics.Counter
	for i := 0; i < 4; i++ {
		var one metrics.Counter
		p, err := Outsource(ctx, spec, opts(hashing.New(&one), WithShard(i))...)
		if err != nil {
			t.Fatal(err)
		}
		_, d := applied(&one, p)
		sum.Add(d)
	}
	if got.Hashes == 0 || got.Hashes != sum.Hashes || got.HashBytes != sum.HashBytes || got.SigSigns != sum.SigSigns {
		t.Fatalf("4-shard apply counted %d hashes / %d bytes / %d signatures; the shards alone sum to %d / %d / %d",
			got.Hashes, got.HashBytes, got.SigSigns, sum.Hashes, sum.HashBytes, sum.SigSigns)
	}

	// The new epoch's trees are bound to the caller's hasher again.
	before := set.Hashes
	if _, err := Apply(ctx, next, Delete(0)); err != nil {
		t.Fatal(err)
	}
	if set.Hashes == before {
		t.Fatal("a mutation applied to the new epoch counted no hashes on the caller's hasher")
	}
}
