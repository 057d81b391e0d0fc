package shard

import (
	"context"
	"testing"

	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/workload"
)

// TestShardedBuildHasherCounts builds four shards concurrently on one
// caller-supplied hasher. Under -race it checks that the shard builds
// no longer share the hasher's counter; in any run the merged count
// must equal the sum of the four shards built alone, and the built
// trees must report later work (an applied mutation) to the caller's
// counter again.
func TestShardedBuildHasherCounts(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(3)})
	if err != nil {
		t.Fatal(err)
	}
	plan := mustPlan(t, dom, 0, 4)
	params := func(ctr *metrics.Counter) core.Params {
		return core.Params{
			Mode: core.MultiSignature, Signer: signer, Domain: dom,
			Template: funcs.AffineLine(0, 1), Shuffle: true, Seed: 1,
			Workers: 2, Hasher: hashing.New(ctr),
		}
	}

	var set metrics.Counter
	s, err := Build(tbl, params(&set), plan)
	if err != nil {
		t.Fatal(err)
	}
	var sum metrics.Counter
	for i := 0; i < plan.K(); i++ {
		var one metrics.Counter
		if _, err := BuildOne(tbl, params(&one), plan, i); err != nil {
			t.Fatal(err)
		}
		sum.Add(one)
	}
	if set.Hashes == 0 || set.Hashes != sum.Hashes || set.HashBytes != sum.HashBytes || set.SigSigns != sum.SigSigns {
		t.Fatalf("4-shard build counted %d hashes / %d bytes / %d signatures; the shards alone sum to %d / %d / %d",
			set.Hashes, set.HashBytes, set.SigSigns, sum.Hashes, sum.HashBytes, sum.SigSigns)
	}

	// One inserted record, applied to shard 0: the new record's digest
	// and the rebuilt lists must count on the caller's counter.
	recs := append(append([]record.Record(nil), tbl.Records...), record.Record{ID: 1 << 20, Attrs: []float64{0.3, -0.2}})
	next, err := record.NewTable(tbl.Schema, recs)
	if err != nil {
		t.Fatal(err)
	}
	d := core.Delta{Table: next, CleanRemap: make([]int, tbl.Len()), DirtyNew: make([]bool, next.Len())}
	for i := range d.CleanRemap {
		d.CleanRemap[i] = i
	}
	d.DirtyNew[tbl.Len()] = true
	before := set.Hashes
	if _, err := s.Trees[0].ApplyCtx(context.Background(), d, s.Trees[0].Epoch()+1, nil); err != nil {
		t.Fatal(err)
	}
	if set.Hashes == before {
		t.Fatal("a mutation applied to a built shard counted no hashes on the caller's hasher")
	}
}
