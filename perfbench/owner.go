package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"time"

	"aqverify/internal/build"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/workload"
)

const (
	publishEvery        = 250 * time.Millisecond // 4 publishes a second
	mutationsPerPublish = 16
)

// publishSample is one publish, timed from when it was due. late is the
// owner's wake-up lag, apply the build.Apply call alone (drawing the
// mutations is excluded), swap the Server.Swap call, and total runs from
// the due time until Swap returned.
type publishSample struct {
	due                      time.Time
	late, apply, swap, total time.Duration
}

// publisher is the owner of churn-onesig: on a fixed schedule it applies
// a batch of mutations to its publication and swaps the new epoch into
// the server.
type publisher struct {
	d         *deployment
	rng       *rand.Rand
	freshSeed int64
	fresh     []record.Record // attribute source for inserted and updated rows
	nextID    uint64
	turn      int // insert, update, delete round-robin position
	// tables holds the owner's table at every epoch, for the reference
	// check; written by run, read after it returns.
	tables    map[uint64]flatTable
	samples   []publishSample
	attempted int
	failed    int
}

func newPublisher(d *deployment, seed int64) *publisher {
	p := &publisher{
		d:         d,
		rng:       rand.New(rand.NewSource(seed)),
		freshSeed: seed + 1<<32,
		tables:    map[uint64]flatTable{d.owned.Tree.Epoch(): flatten(d.owned.Tree.Table())},
	}
	for _, r := range d.spec.Table.Records {
		p.nextID = max(p.nextID, r.ID+1)
	}
	return p
}

// record returns a new row with the given id, its line drawn from the
// same generator as the published table.
func (p *publisher) record(id uint64) (record.Record, error) {
	if len(p.fresh) == 0 {
		p.freshSeed++
		tbl, _, err := workload.Lines(workload.LinesConfig{N: nRecords, Seed: p.freshSeed})
		if err != nil {
			return record.Record{}, err
		}
		p.fresh = tbl.Records
	}
	r := p.fresh[0]
	p.fresh = p.fresh[1:]
	r.ID = id
	return r, nil
}

// batch draws the next mutationsPerPublish mutations against the current
// epoch's table: inserts, updates and deletes in turn, so the table stays
// near its initial size, each update or delete on a distinct row.
func (p *publisher) batch() ([]build.Mutation, error) {
	tbl := p.d.owned.Tree.Table()
	used := map[int]bool{}
	row := func() int {
		for {
			if i := p.rng.Intn(tbl.Len()); !used[i] {
				used[i] = true
				return i
			}
		}
	}
	muts := make([]build.Mutation, 0, mutationsPerPublish)
	for range mutationsPerPublish {
		switch p.turn % 3 {
		case 0:
			r, err := p.record(p.nextID)
			if err != nil {
				return nil, err
			}
			p.nextID++
			muts = append(muts, build.Insert(r))
		case 1:
			i := row()
			r, err := p.record(tbl.Records[i].ID)
			if err != nil {
				return nil, err
			}
			muts = append(muts, build.Update(i, r))
		default:
			muts = append(muts, build.Delete(row()))
		}
		p.turn++
	}
	return muts, nil
}

// run publishes at every multiple of publishEvery after start until the
// window ends. A publish that overruns delays the next, which is then
// timed from its own due time.
func (p *publisher) run(ctx context.Context, start, end time.Time) {
	for k := 0; ; k++ {
		due := start.Add(time.Duration(k) * publishEvery)
		if !due.Before(end) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			t := time.NewTimer(wait)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
				return
			}
		}
		began := time.Now()
		p.attempted++
		muts, err := p.batch()
		if err != nil {
			p.fail(err)
			continue
		}
		applying := time.Now()
		res, err := build.Apply(ctx, p.d.owned, muts...)
		applied := time.Now()
		if err != nil {
			p.fail(err)
			continue
		}
		if err := p.d.ownedSrv.Swap(server.IFMH{Tree: res.Tree}); err != nil {
			p.fail(err)
			continue
		}
		swapped := time.Now()
		p.d.owned = res
		p.tables[res.Tree.Epoch()] = flatten(res.Tree.Table())
		p.samples = append(p.samples, publishSample{
			due:   due,
			late:  began.Sub(due),
			apply: applied.Sub(applying),
			swap:  swapped.Sub(applied),
			total: swapped.Sub(due),
		})
	}
}

// flatTable is a table as the reference check needs it: record ids and
// scored attributes, in arrays that hold no pointers. The publisher keeps
// one per epoch; kept as record.Tables, each publish would add 2,000
// records for the garbage collector to scan, so its work per cycle would
// grow over the run.
type flatTable struct {
	schema record.Schema
	ids    []uint64
	attrs  []float64 // arity attributes per record
}

func flatten(t record.Table) flatTable {
	f := flatTable{schema: t.Schema, ids: make([]uint64, len(t.Records))}
	f.attrs = make([]float64, 0, len(t.Records)*t.Schema.Arity())
	for i, r := range t.Records {
		f.ids[i] = r.ID
		f.attrs = append(f.attrs, r.Attrs...)
	}
	return f
}

// table rebuilds the record.Table, without payloads.
func (f flatTable) table() record.Table {
	a := f.schema.Arity()
	recs := make([]record.Record, len(f.ids))
	for i, id := range f.ids {
		recs[i] = record.Record{ID: id, Attrs: f.attrs[i*a : (i+1)*a : (i+1)*a]}
	}
	return record.Table{Schema: f.schema, Records: recs}
}

func (p *publisher) fail(err error) {
	p.failed++
	fmt.Fprintln(os.Stderr, "perfbench: publish failed:", err)
}

// applyAllocMB is the median allocation of one Apply with no readers
// running, measured after the window: the process-wide allocation
// counter cannot separate the owner's allocations from the readers'.
func (p *publisher) applyAllocMB(ctx context.Context) (float64, error) {
	var xs []float64
	for range 3 {
		muts, err := p.batch()
		if err != nil {
			return 0, err
		}
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		if _, err := build.Apply(ctx, p.d.owned, muts...); err != nil {
			return 0, err
		}
		runtime.ReadMemStats(&m1)
		xs = append(xs, float64(m1.TotalAlloc-m0.TotalAlloc)/1e6)
	}
	return median(xs), nil
}
