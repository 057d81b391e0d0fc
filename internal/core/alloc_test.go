package core

import (
	"testing"

	"aqverify/internal/funcs"
	"aqverify/internal/workload"
)

// buildAllocCeiling bounds the heap allocations of one canonical 1-D
// build of the fixture below at twice the ~76,200 it takes when the
// tree is built from the sorted arrangement and the exact comparisons
// are float-filtered. Building the tree by inserting every intersection
// from the root (~1.07 M allocations), or comparing sweep scores as
// rationals throughout, goes well beyond it.
const buildAllocCeiling = 2 * 76_200

// TestBuildAllocCeiling gates the construction's allocation count,
// which, unlike its wall time, is deterministic: n = 300 lines, one
// worker, canonical order, one signature, the benchmark's line
// workload (about three subdomains per record).
func TestBuildAllocCeiling(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation gate skipped in -short mode")
	}
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	p := Params{
		Mode: OneSignature, Signer: testSigner, Domain: dom,
		Template: funcs.AffineLine(0, 1), Shuffle: true, Seed: 7, Workers: 1,
	}
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := Build(tbl, p); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > buildAllocCeiling {
		t.Fatalf("a 300-record canonical build made %.0f allocations, above the ceiling of %d", allocs, buildAllocCeiling)
	}
}
