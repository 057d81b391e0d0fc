// Command perfbench is the repository's end-to-end benchmark. It builds a
// publication, serves it in-process over loopback HTTP, drives verified
// queries at it (and, in churn-onesig, publishes mutations beside them),
// checks every answer, and prints each metric by name and unit.
//
//	perfbench -workload churn-onesig -seed 1 -seconds 35 -trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. With -trace 0 the metrics are the
// end-to-end ones. With -trace 1 the run is split: the first half runs
// untraced, and in the second half every other request of each client
// records spans at every layer boundary; the metrics are the per-layer
// ones, computed from the spans' self times, plus the tracing overhead
// between the traced and untraced requests of the second half. The line
// before it stamps the run (toolchain, CPUs, seed, commit, sample
// counts). The command exits non-zero when any operation failed.
// perfbench/README.md describes the workloads and metrics.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"slices"
	"sync"
	"time"

	"aqverify/internal/funcs"
	"aqverify/internal/query"
	"aqverify/internal/record"
)

const (
	// A run sets its deployment up setupsBefore times before the measured
	// window, the last one serving the load, and setupsAfter times at the
	// end of the run; setup_s is the median of them all. The machine's
	// speed drifts over tens of seconds, so set-ups half a minute apart
	// see more of its states than set-ups in a row.
	setupsBefore = 3
	setupsAfter  = 2
	warmup       = time.Second
	// subWindows is how many equal parts the measured window is cut into.
	// Each end-to-end rate and latency quantile is computed per part and
	// reported as the median over the parts, so a burst of outside load
	// in part of the window moves it little.
	subWindows = 5
)

type config struct {
	workload string
	seed     int64
	seconds  float64
	traced   bool
	scratch  string
}

// workloads maps each name to its deployment and the answer rate its
// query pool is sized for: at least 1.1 times the fastest run's rate
// measured on 2 CPUs, so query inputs do not repeat within a run. Range
// generation costs ~175 µs a query, so the pool is not sized larger.
var workloads = map[string]struct {
	rate   float64
	deploy func(ctx context.Context, cfg config, rec *recorder) (*deployment, error)
}{
	"stream-multisig-front": {12000, deployStream},
	"churn-onesig":          {7000, deployTree},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run()) }

func run() int {
	var cfg config
	var trace int
	flag.StringVar(&cfg.workload, "workload", "", "workload name: stream-multisig-front or churn-onesig")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed of the table, signing key, queries and mutations")
	flag.Float64Var(&cfg.seconds, "seconds", 35, "length of the measured window")
	flag.IntVar(&trace, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.scratch, "scratch", filepath.Join(".bench_build", "scratch"), "directory for artifacts and span files")
	flag.Parse()
	cfg.traced = trace == 1
	if _, ok := workloads[cfg.workload]; !ok || cfg.seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: need -workload stream-multisig-front|churn-onesig, -seconds > 0 and -trace 0|1")
		return 2
	}
	res, stamp, err := measure(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	st, _ := json.Marshal(map[string]any{"stamp": stamp})
	fmt.Println(string(st))
	out, _ := json.Marshal(res)
	fmt.Println(string(out))
	if !res.Correct {
		return 1
	}
	return 0
}

func measure(cfg config) (result, map[string]any, error) {
	wl := workloads[cfg.workload]
	var rec *recorder
	if cfg.traced {
		rec = newRecorder()
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	var (
		d              *deployment
		setups         []float64
		builds         []buildFigures
		saveMs, openMs []float64
	)
	setUp := func() (*deployment, error) {
		t := time.Now()
		d, err := wl.deploy(ctx, cfg, rec)
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t).Seconds())
		builds = append(builds, d.build)
		saveMs, openMs = append(saveMs, d.saveMs), append(openMs, d.openMs)
		return d, nil
	}
	for range setupsBefore {
		if d != nil {
			d.close()
		}
		var err error
		if d, err = setUp(); err != nil {
			return result{}, nil, err
		}
	}
	defer d.close()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	heapMB := float64(mem.HeapAlloc) / 1e6

	perKind := int(wl.rate*(warmup.Seconds()+cfg.seconds)/3) + streamSize
	pool, err := genPool(d, cfg.seed, perKind)
	if err != nil {
		return result{}, nil, err
	}

	begin := time.Now()
	tl := timeline{start: begin.Add(warmup), traced: cfg.traced}
	tl.end = tl.start.Add(time.Duration(cfg.seconds * float64(time.Second)))
	tl.mid = tl.start.Add(tl.end.Sub(tl.start) / 2)

	// Process counters at the window's start, middle and end.
	var procs [3]procSample
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i, at := range []time.Time{tl.start, tl.mid, tl.end} {
			time.Sleep(time.Until(at))
			procs[i] = sampleProc()
		}
	}()
	var (
		t   *tally
		pub *publisher
	)
	switch cfg.workload {
	case "stream-multisig-front":
		t = driveStream(ctx, d, pool, tl, rec, cfg.seed)
	case "churn-onesig":
		t, pub = driveChurn(ctx, d, pool, tl, begin, rec, cfg.seed)
	}
	wg.Wait()

	tables := map[uint64]flatTable{d.pub.Epoch: flatten(d.spec.Table)}
	res := result{Attempted: t.attempted, Failed: t.failed}
	if pub != nil {
		tables = pub.tables
		res.Attempted += pub.attempted
		res.Failed += pub.failed
	}
	res.Attempted += len(t.refs)
	res.Failed += referenceCheck(t.refs, tables, d.spec.Template)
	res.Correct = res.Failed == 0

	var win []reqSample
	for _, s := range t.samples {
		if s.at >= 0 && s.at < tl.end.Sub(tl.start) {
			win = append(win, s)
		}
	}
	var published []publishSample
	if pub != nil {
		for _, s := range pub.samples {
			if !s.due.Before(tl.start) {
				published = append(published, s)
			}
		}
	}

	if !cfg.traced {
		res.Metrics = endToEnd(win, tl, heapMB)
	} else {
		lm, err := perLayer(ctx, layerInputs{
			d: d, rec: rec, tl: tl, win: win,
			procs: procs, t: t, pub: pub, published: published,
		})
		if err != nil {
			return result{}, nil, err
		}
		res.Metrics = lm
		if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
			return result{}, nil, err
		}
		// One span file per workload, overwritten by its next traced run.
		path := filepath.Join(cfg.scratch, "trace-"+cfg.workload+".jsonl")
		if err := rec.writeJSONL(path); err != nil {
			return result{}, nil, err
		}
		rec.spans = nil
		// The untraced run reports failures in its failed and attempted
		// fields only: an end-to-end metric that is 0 has no spread.
		res.Metrics["failed_ratio"] = metric{ratio(float64(res.Failed), float64(res.Attempted)), "1"}
	}

	answers := 0
	for _, s := range win {
		answers += s.answers
	}
	stamp := map[string]any{
		"workload": cfg.workload, "seed": cfg.seed, "seconds": cfg.seconds, "trace": cfg.traced,
		"go": runtime.Version(), "gomaxprocs": runtime.GOMAXPROCS(0), "nproc": runtime.NumCPU(),
		"scheme": "ed25519", "n": nRecords, "commit": commit(),
		"requests": len(win), "answers": answers, "publishes": len(published),
		"reference_checks": len(t.refs), "pool_wraps": pool.wraps.Load(),
	}

	// The set-ups at the end of the run, with the served deployment torn
	// down and the window's samples unreferenced, so that they run on a
	// heap the size of the first set-ups' heap.
	d.close()
	runtime.GC()
	for range setupsAfter {
		extra, err := setUp()
		if err != nil {
			return result{}, nil, err
		}
		extra.close()
	}
	stamp["setup_s_each"] = setups
	if !cfg.traced {
		res.Metrics["setup_s"] = metric{median(setups), "s"}
	} else {
		maps.Copy(res.Metrics, buildMetrics(builds, median(saveMs), median(openMs)))
	}
	return res, stamp, nil
}

// referenceCheck re-executes each sampled query over the owner's table
// at the epoch it was answered under and counts answers whose record ids
// differ from the reference execution's.
func referenceCheck(refs []refSample, tables map[uint64]flatTable, tpl funcs.Template) int {
	bad := 0
	rebuilt := map[uint64]record.Table{}
	for _, r := range refs {
		flat, ok := tables[r.epoch]
		if !ok {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: reference check: answer under unknown epoch %d\n", r.epoch)
			continue
		}
		tbl, ok := rebuilt[r.epoch]
		if !ok {
			tbl = flat.table()
			rebuilt[r.epoch] = tbl
		}
		want, err := query.Exec(tbl, tpl, r.q)
		if err != nil || !slices.EqualFunc(want.Records, r.ids, func(rec record.Record, id uint64) bool { return rec.ID == id }) {
			bad++
			fmt.Fprintf(os.Stderr, "perfbench: reference check: verified answer differs from the reference execution (epoch %d, err %v)\n", r.epoch, err)
		}
	}
	return bad
}

// endToEnd computes the metrics a user of the system sees from the
// untraced window's requests. Rates and latency quantiles are computed
// in each of subWindows equal parts of the window, by the requests that
// started in it, and reported as their median; bytes per answer are
// over the whole window.
func endToEnd(win []reqSample, tl timeline, heapMB float64) map[string]metric {
	part := tl.end.Sub(tl.start) / subWindows
	var (
		reqMs, firstMs [subWindows][]float64
		partAnswers    [subWindows]int
		answers        int
		bytes          uint64
	)
	for _, s := range win {
		i := min(int(s.at/part), subWindows-1)
		reqMs[i] = append(reqMs[i], ms(s.dur))
		firstMs[i] = append(firstMs[i], ms(s.first))
		partAnswers[i] += s.answers
		answers += s.answers
		bytes += s.bytes
	}
	perPart := func(f func(i int) float64) float64 {
		xs := make([]float64, subWindows)
		for i := range xs {
			xs[i] = f(i)
		}
		return median(xs)
	}
	q := func(xs *[subWindows][]float64, p float64) float64 {
		return perPart(func(i int) float64 { return quantile(xs[i], p) })
	}
	return map[string]metric{
		"heap_mb":             {heapMB, "MB"},
		"answers_per_s":       {perPart(func(i int) float64 { return float64(partAnswers[i]) / part.Seconds() }), "1/s"},
		"request_p50_ms":      {q(&reqMs, 0.5), "ms"},
		"request_p99_ms":      {q(&reqMs, 0.99), "ms"},
		"first_answer_p50_ms": {q(&firstMs, 0.5), "ms"},
		"first_answer_p99_ms": {q(&firstMs, 0.99), "ms"},
		"vo_bytes_per_answer": {ratio(float64(bytes), float64(answers)), "B"},
	}
}

type layerInputs struct {
	d         *deployment
	rec       *recorder
	tl        timeline
	win       []reqSample
	procs     [3]procSample
	t         *tally
	pub       *publisher
	published []publishSample
}

// buildMetrics gives the build and artifact figures of a traced run:
// medians over its set-ups.
func buildMetrics(builds []buildFigures, saveMs, openMs float64) map[string]metric {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	med := func(f func(b buildFigures) float64) float64 {
		var xs []float64
		for _, b := range builds {
			xs = append(xs, f(b))
		}
		return median(xs)
	}
	for _, st := range stages {
		set("build."+string(st)+"_ms", med(func(b buildFigures) float64 { return b.stageMs[st] }), "ms")
	}
	set("build.pair_units", med(func(b buildFigures) float64 { return float64(b.pairUnits) }), "count")
	set("build.subdomains", med(func(b buildFigures) float64 { return float64(b.subs) }), "count")
	set("build.signatures", med(func(b buildFigures) float64 { return float64(b.sigs) }), "count")
	set("build.hashes", med(func(b buildFigures) float64 { return float64(b.hashes) }), "count")
	set("build.alloc_mb", med(func(b buildFigures) float64 { return b.allocMB }), "MB")
	set("build.allocs", med(func(b buildFigures) float64 { return b.allocs }), "count")
	set("artifact.save_ms", saveMs, "ms")
	set("artifact.open_ms", openMs, "ms")
	return m
}

// perLayer computes the other per-layer metrics of a traced run: runtime
// figures from the untraced first half, span self times and counts from
// the traced requests of the second half, and the tracing overhead from
// the traced and untraced requests of the second half, which alternate.
func perLayer(ctx context.Context, in layerInputs) (map[string]metric, error) {
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }

	// Publishing (churn only; zero where the workload does not publish).
	var late, apply, swap, total []float64
	for _, s := range in.published {
		late = append(late, ms(s.late))
		apply = append(apply, ms(s.apply))
		swap = append(swap, float64(s.swap)/1e3)
		total = append(total, ms(s.total))
	}
	set("build.apply_ms", median(apply), "ms")
	set("server.swap_us", median(swap), "us")
	set("publish.late_ms", median(late), "ms")
	set("publish.p50_ms", quantile(total, 0.5), "ms")
	set("publish.p90_ms", quantile(total, 0.9), "ms")
	allocMB := 0.0
	if in.pub != nil {
		var err error
		if allocMB, err = in.pub.applyAllocMB(ctx); err != nil {
			return nil, err
		}
	}
	set("build.apply_alloc_mb", allocMB, "MB")
	var refreshMs []float64
	for _, r := range in.t.refreshes {
		refreshMs = append(refreshMs, ms(r))
	}
	set("client.refresh_ms", mean(refreshMs), "ms")
	publishes := 0.0
	if in.pub != nil {
		publishes = float64(in.pub.attempted)
	}
	set("client.stale_items_per_publish", ratio(float64(in.t.stale), publishes), "count")

	// Runtime, over the untraced first half.
	var firstHalf, traced, untraced []reqSample
	for _, s := range in.win {
		switch {
		case s.at < in.tl.mid.Sub(in.tl.start):
			firstHalf = append(firstHalf, s)
		case s.traced:
			traced = append(traced, s)
		default:
			untraced = append(untraced, s)
		}
	}
	ansFirst := 0
	for _, s := range firstHalf {
		ansFirst += s.answers
	}
	for k, v := range runtimeMetrics(in.procs[0], in.procs[1], ansFirst) {
		unit := "count"
		switch k {
		case "runtime.alloc_bytes_per_answer":
			unit = "B"
		case "runtime.gc_pause_ms":
			unit = "ms"
		case "runtime.cpu_util":
			unit = "1"
		}
		set(k, v, unit)
	}

	// Spans, over the traced requests.
	a := analyse(in.rec.spans)
	ansT, bytesT, hashesT := 0, uint64(0), uint64(0)
	for _, s := range traced {
		ansT += s.answers
		bytesT += s.bytes
		hashesT += s.hashes
	}
	n := float64(ansT)
	serverOwn := a.selfPer("server.query", n) + a.selfPer("server.batch", n) + a.selfPer("server.stream", n)
	set("server.us_per_answer", serverOwn, "us")
	var nodes, served uint64
	for _, srv := range in.d.servers {
		c, q := srv.Stats()
		nodes += c.NodesVisited
		served += uint64(q)
	}
	set("server.nodes_per_answer", ratio(float64(nodes), float64(served)), "count")
	ex := a.stat("client.exchange")
	set("transport.us_per_request", ratio(float64(ex.own)/1e3, float64(ex.n)), "us")
	set("wire.decode_us_per_answer", a.totalPer("wire.decode", n), "us")
	set("wire.bytes_per_answer", ratio(float64(bytesT), n), "B")
	fr := a.stat("front.stream")
	set("front.ms_per_batch", ratio(float64(fr.total)/1e6, float64(fr.n)), "ms")
	set("front.hop_ms_per_batch", a.hopMs("front.stream"), "ms")
	set("core.verify_us_per_answer", a.selfPer("core.verify", n), "us")
	set("hashing.hashes_per_answer", ratio(float64(hashesT), n), "count")
	sv := a.stat("sig.verify")
	set("sig.verify_us", ratio(float64(sv.total)/1e3, float64(sv.n)), "us")
	set("sig.verifies_per_answer", ratio(float64(sv.n), n), "count")
	set("sig.distinct_ratio", ratio(float64(len(in.rec.sigPairs)), float64(sv.n)), "1")

	// Tracing overhead: in the second half each client alternates traced
	// and untraced requests, so both kinds run under the same machine
	// conditions. A kind's answer rate is its answers over the client
	// time its requests took.
	rate := func(xs []reqSample) float64 {
		var answers int
		var busy time.Duration
		for _, s := range xs {
			answers += s.answers
			busy += s.dur
		}
		return ratio(float64(answers), busy.Seconds())
	}
	apsU, apsT := rate(untraced), rate(traced)
	set("trace.answers_per_s_untraced", apsU, "1/s")
	set("trace.answers_per_s_traced", apsT, "1/s")
	set("trace.overhead_pct", 100*(ratio(apsU, apsT)-1), "%")
	set("trace.spans", float64(len(in.rec.spans)), "count")
	return m, nil
}

// commit is the VCS revision the binary was built from, when the build
// could see one, with "-dirty" appended when the tree had uncommitted
// changes.
func commit() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", false
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			dirty = s.Value == "true"
		}
	}
	if dirty {
		rev += "-dirty"
	}
	return rev
}
