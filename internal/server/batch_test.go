package server

import (
	"bytes"
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
)

// TestHandleErrorKeepsTotalsClean: a failed query must not leak its
// partial traversal cost into the cumulative totals or the answered
// count — only the error count moves.
func TestHandleErrorKeepsTotalsClean(t *testing.T) {
	tree, _, dom := fixtures(t)
	s, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	if _, err := s.Handle(query.NewTopK(x, 3)); err != nil {
		t.Fatal(err)
	}
	okTotal, okCount := s.Stats()

	// Outside the owner's domain: the backend refuses.
	if _, err := s.Handle(query.NewTopK(geometry.Point{dom.Hi[0] + 10}, 3)); err == nil {
		t.Fatal("out-of-domain query succeeded")
	}
	total, count := s.Stats()
	if count != okCount {
		t.Errorf("answered count moved on error: %d -> %d", okCount, count)
	}
	if total != okTotal {
		t.Errorf("failed query leaked cost into totals:\nbefore: %v\nafter:  %v", &okTotal, &total)
	}
	if got := s.ErrorCount(); got != 1 {
		t.Errorf("ErrorCount = %d, want 1", got)
	}
}

// TestQueryBatchMatchesHandle: the batched path must produce, for every
// query, exactly the bytes and errors the sequential path produces, for
// any worker count, and account metrics identically.
func TestQueryBatchMatchesHandle(t *testing.T) {
	tree, _, dom := fixtures(t)
	rng := rand.New(rand.NewSource(7))
	qs := make([]query.Query, 40)
	for i := range qs {
		x := geometry.Point{rng.Float64()*(dom.Hi[0]-dom.Lo[0]) + dom.Lo[0]}
		switch i % 4 {
		case 0:
			qs[i] = query.NewTopK(x, 1+rng.Intn(5))
		case 1:
			qs[i] = query.NewRange(x, -2, 2)
		case 2:
			qs[i] = query.NewKNN(x, 1+rng.Intn(5), rng.NormFloat64())
		default:
			// Every fourth query is refused (outside the domain).
			qs[i] = query.NewTopK(geometry.Point{dom.Hi[0] + 5}, 2)
		}
	}

	ref, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	wantOut := make([][]byte, len(qs))
	wantErr := make([]bool, len(qs))
	for i, q := range qs {
		out, err := ref.Handle(q)
		wantOut[i], wantErr[i] = out, err != nil
	}
	refTotal, refCount := ref.Stats()

	for _, workers := range []int{0, 1, 3, 16} {
		s, err := New(IFMH{Tree: tree})
		if err != nil {
			t.Fatal(err)
		}
		answers, errs := s.QueryBatch(context.Background(), qs, backend.WithWorkers(workers))
		if len(answers) != len(qs) || len(errs) != len(qs) {
			t.Fatalf("workers=%d: result lengths %d/%d", workers, len(answers), len(errs))
		}
		for i := range qs {
			if (errs[i] != nil) != wantErr[i] {
				t.Fatalf("workers=%d: query %d error = %v, want error=%v", workers, i, errs[i], wantErr[i])
			}
			if !bytes.Equal(answers[i].Raw, wantOut[i]) {
				t.Fatalf("workers=%d: query %d bytes differ from sequential Handle", workers, i)
			}
		}
		total, count := s.Stats()
		if count != refCount || total != refTotal {
			t.Errorf("workers=%d: stats (%v, %d) differ from sequential (%v, %d)",
				workers, &total, count, &refTotal, refCount)
		}
		if got, want := s.ErrorCount(), ref.ErrorCount(); got != want {
			t.Errorf("workers=%d: ErrorCount = %d, want %d", workers, got, want)
		}
	}
}

// TestQueryBatchEmpty: a zero-length batch is a no-op.
func TestQueryBatchEmpty(t *testing.T) {
	tree, _, _ := fixtures(t)
	s, err := New(IFMH{Tree: tree})
	if err != nil {
		t.Fatal(err)
	}
	answers, errs := s.QueryBatch(context.Background(), nil, backend.WithWorkers(4))
	if len(answers) != 0 || len(errs) != 0 {
		t.Errorf("empty batch returned %d/%d items", len(answers), len(errs))
	}
}
