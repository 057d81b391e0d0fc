package server

import (
	"context"
	"errors"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestQueryBatchCanceled: a done context fails every prevented index
// with ctx.Err(), no answer bytes and shard -1 instead of silently
// running the whole batch; a live context answers the same batch.
func TestQueryBatchCanceled(t *testing.T) {
	tree, _, dom := fixtures(t)
	s, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	qs := make([]query.Query, 16)
	for i := range qs {
		qs[i] = query.NewTopK(x, 1+i%4)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	answers, errs := s.QueryBatch(ctx, qs, backend.WithWorkers(2))
	for i := range qs {
		if !errors.Is(errs[i], context.Canceled) {
			t.Fatalf("query %d: err=%v, want context.Canceled", i, errs[i])
		}
		if answers[i].Raw != nil || answers[i].Shard != -1 {
			t.Fatalf("query %d: prevented item carries out=%v shard=%d", i, answers[i].Raw, answers[i].Shard)
		}
	}

	answers, errs = s.QueryBatch(context.Background(), qs, backend.WithWorkers(2))
	for i := range qs {
		if errs[i] != nil {
			t.Fatalf("live query %d: %v", i, errs[i])
		}
		if len(answers[i].Raw) == 0 || answers[i].Shard != -1 {
			t.Fatalf("live query %d: out=%d bytes shard=%d", i, len(answers[i].Raw), answers[i].Shard)
		}
	}
}
