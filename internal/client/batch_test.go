package client

import (
	"context"
	"errors"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
)

func batchQueries(dom geometry.Box) []query.Query {
	x := geometry.Point{(dom.Lo[0] + dom.Hi[0]) / 2}
	return []query.Query{
		query.NewTopK(x, 3),
		query.NewBottomK(x, 3),
		query.NewRange(x, -2, 2),
		query.NewKNN(x, 3, 0),
		query.NewTopK(geometry.Point{dom.Hi[0] + 7}, 1), // refused by the server
	}
}

// checkBatch runs qs through the server's batch path, carries every
// answer through ch, and checks each one with c.Check — the data user's
// side of one batched exchange with a server whose answers it must not
// trust. The results are parallel to qs.
func checkBatch(c *Client, s *server.Server, ch Channel, qs []query.Query, workers int) ([][]record.Record, []error) {
	answers, errs := s.QueryBatch(context.Background(), qs, backend.WithWorkers(workers))
	recs := make([][]record.Record, len(qs))
	for i := range qs {
		if errs[i] != nil {
			continue
		}
		raw := answers[i].Raw
		if ch != nil {
			raw = ch(raw)
		}
		recs[i], errs[i] = c.Check(qs[i], raw)
	}
	return recs, errs
}

// TestQueryBatchVerifies: the server's batch path, checked answer by
// answer, returns exactly what per-query Query returns — verified
// records for honest answers, a server error for the refused query —
// for IFMH and mesh backends alike and for every worker count.
func TestQueryBatchVerifies(t *testing.T) {
	srv, pub, msrv, mpub, dom := fixtures(t)
	qs := batchQueries(dom)
	for _, tc := range []struct {
		name string
		cli  *Client
		srv  *server.Server
	}{
		{"ifmh", NewIFMH(pub), srv},
		{"mesh", NewMesh(mpub), msrv},
	} {
		// Sequential reference results.
		wantRecs := make([][]record.Record, len(qs))
		wantErrs := make([]error, len(qs))
		for i, q := range qs {
			wantRecs[i], wantErrs[i] = tc.cli.Query(tc.srv, nil, q)
		}
		for _, workers := range []int{0, 1, 4} {
			recs, errs := checkBatch(tc.cli, tc.srv, nil, qs, workers)
			for i := range qs {
				if (errs[i] != nil) != (wantErrs[i] != nil) {
					t.Errorf("%s workers=%d query %d: err = %v, want err = %v", tc.name, workers, i, errs[i], wantErrs[i])
					continue
				}
				if len(recs[i]) != len(wantRecs[i]) {
					t.Errorf("%s workers=%d query %d: %d records, want %d", tc.name, workers, i, len(recs[i]), len(wantRecs[i]))
					continue
				}
				for j := range recs[i] {
					if recs[i][j].ID != wantRecs[i][j].ID {
						t.Errorf("%s workers=%d query %d record %d: ID %d, want %d",
							tc.name, workers, i, j, recs[i][j].ID, wantRecs[i][j].ID)
					}
				}
			}
		}
	}
}

// TestQueryBatchTamperingRejected: a channel corrupting one answer in
// the batch takes down exactly that item.
func TestQueryBatchTamperingRejected(t *testing.T) {
	srv, pub, _, _, dom := fixtures(t)
	cli := NewIFMH(pub)
	qs := batchQueries(dom)[:4] // drop the refused query: all honest here
	var calls int
	ch := func(b []byte) []byte {
		calls++
		if calls == 2 { // corrupt only the second answer
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x40
			return out
		}
		return b
	}
	recs, errs := checkBatch(cli, srv, ch, qs, 4)
	for i := range qs {
		if i == 1 {
			if !errors.Is(errs[i], ErrRejected) {
				t.Errorf("tampered item error = %v, want ErrRejected", errs[i])
			}
			if len(recs[i]) != 0 {
				t.Error("tampered item still returned records")
			}
			continue
		}
		if errs[i] != nil {
			t.Errorf("untampered query %d rejected: %v", i, errs[i])
		}
	}
}
