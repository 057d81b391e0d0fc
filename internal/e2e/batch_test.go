package e2e

import (
	"context"
	"math/rand"
	"testing"

	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/query"
	"aqverify/internal/server"
	"aqverify/internal/workload"
)

// TestBatchedRoundTrip drives the whole batched pipeline end to end for
// a parallel-built tree: owner builds with a worker pool, server fans a
// mixed batch out across QueryBatch, the data user verifies every
// answer through the VerifyBatch-backed backend.FinishBatch, and a
// tampering channel takes down exactly the answers it touched.
func TestBatchedRoundTrip(t *testing.T) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 150, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	tpl := funcs.AffineLine(0, 1)
	spec := ownerSpec(t, tbl, tpl, dom)

	for _, mode := range []core.Mode{core.OneSignature, core.MultiSignature} {
		res := outsource(t, spec, build.WithMode(mode), build.WithShuffle(0), build.WithWorkers(4))
		srv, err := server.New(server.IFMH{Tree: res.Tree})
		if err != nil {
			t.Fatal(err)
		}
		// queryBatch is the data user's side of one batched exchange:
		// the server answers, ch carries every answer in index order,
		// and the batch is verified against the published bundle.
		queryBatch := func(qs []query.Query, ch func([]byte) []byte) ([]backend.Answer, []error) {
			answers, errs := srv.QueryBatch(context.Background(), qs, backend.WithWorkers(4))
			for i := range answers {
				if errs[i] == nil && ch != nil {
					answers[i].Raw = ch(answers[i].Raw)
				}
			}
			backend.FinishBatch(context.Background(), qs, answers, errs,
				backend.WithVerify(res.Public), backend.WithWorkers(4))
			return answers, errs
		}

		rng := rand.New(rand.NewSource(8))
		qs := make([]query.Query, 24)
		for i := range qs {
			x := geometry.Point{rng.Float64()*(dom.Hi[0]-dom.Lo[0]) + dom.Lo[0]}
			switch i % 4 {
			case 0:
				qs[i] = query.NewTopK(x, 1+rng.Intn(6))
			case 1:
				qs[i] = query.NewRange(x, -2, 2)
			case 2:
				qs[i] = query.NewKNN(x, 1+rng.Intn(6), rng.NormFloat64())
			default:
				qs[i] = query.NewBottomK(x, 1+rng.Intn(6))
			}
		}

		// Honest channel: every answer verifies and matches the trusted
		// local execution.
		answers, errs := queryBatch(qs, nil)
		for i, r := range answers {
			if errs[i] != nil {
				t.Fatalf("%v: query %d rejected: %v", mode, i, errs[i])
			}
			want, err := query.Exec(tbl, tpl, qs[i])
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Records) != len(want.Records) {
				t.Fatalf("%v: query %d returned %d records, trusted exec %d", mode, i, len(r.Records), len(want.Records))
			}
			for j := range want.Records {
				if r.Records[j].ID != want.Records[j].ID {
					t.Fatalf("%v: query %d record %d: ID %d, want %d", mode, i, j, r.Records[j].ID, want.Records[j].ID)
				}
			}
		}

		// Tampering channel: flip a bit in every third answer.
		var n int
		ch := func(b []byte) []byte {
			n++
			if n%3 != 0 {
				return b
			}
			out := append([]byte(nil), b...)
			out[len(out)/2] ^= 0x08
			return out
		}
		n = 0
		_, errs = queryBatch(qs, ch)
		for i, err := range errs {
			tampered := (i+1)%3 == 0
			if tampered && err == nil {
				t.Fatalf("%v: tampered query %d accepted", mode, i)
			}
			if !tampered && err != nil {
				t.Fatalf("%v: untampered query %d rejected: %v", mode, i, err)
			}
		}
	}
}
