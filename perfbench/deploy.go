package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"aqverify/internal/artifact"
	"aqverify/internal/backend"
	"aqverify/internal/build"
	"aqverify/internal/core"
	"aqverify/internal/front"
	"aqverify/internal/funcs"
	"aqverify/internal/hashing"
	"aqverify/internal/metrics"
	"aqverify/internal/server"
	"aqverify/internal/sig"
	"aqverify/internal/transport"
	"aqverify/internal/workload"
)

// nRecords is the table size every workload publishes.
const nRecords = 2000

// publicationSeed fixes the published table and the I-tree insertion
// order to vqserve's defaults (-seed 1): gaussian lines at the
// generator's default density 3, cut into 4,822 subdomains. The
// generator's subdomain count varies by up to a third between seeds
// (4,822 to 6,605 over seeds 1-10) and the shuffle moves the tree depth,
// which would move set-up time, heap and VO size between seeds by more
// than any bound. The run seed draws everything else: the signing key,
// the queries, the mutations and the reference sample.
const publicationSeed = 1

// publicationSpec builds the owner's inputs: the fixed table, and the
// signing key drawn from the run seed.
func publicationSpec(seed int64) (build.Spec, error) {
	tbl, dom, err := workload.Lines(workload.LinesConfig{N: nRecords, Seed: publicationSeed})
	if err != nil {
		return build.Spec{}, err
	}
	signer, err := sig.NewSigner(sig.Ed25519, sig.Options{Rand: sig.DeterministicRand(seed)})
	if err != nil {
		return build.Spec{}, err
	}
	return build.Spec{Table: tbl, Template: funcs.AffineLine(0, 1), Domain: dom, Signer: signer}, nil
}

// deployment is one served publication plus the client that queries it.
type deployment struct {
	remote *transport.Remote
	pub    core.PublicParams // the bundle read from /params
	spec   build.Spec
	// servers are the tree-hosting servers, for their walk tallies.
	servers []*server.Server
	// owned is the owner's live publication and the server it is swapped
	// into (single-tree workloads; stream serves read-only artifacts).
	owned    *build.Result
	ownedSrv *server.Server
	build    buildFigures
	// saveMs and openMs time the artifact round trip (stream only).
	saveMs, openMs float64
	closers        []func()
}

func (d *deployment) close() {
	for _, c := range slices.Backward(d.closers) {
		c()
	}
	d.closers = nil
}

// buildFigures is what one Outsource call cost, split by stage.
type buildFigures struct {
	stageMs   map[core.Stage]float64
	pairUnits int
	subs      int
	sigs      int
	hashes    uint64
	allocMB   float64
	allocs    float64
}

var stages = []core.Stage{
	core.StageDigest, core.StagePairs, core.StageITree, core.StageSweep,
	core.StageLists, core.StagePropagate, core.StageSign,
}

// outsource runs build.Outsource; when traced it also records the stage
// starts and allocation of the call, and its hash count when hashed.
func outsource(ctx context.Context, spec build.Spec, traced, hashed bool, opts ...build.Option) (*build.Result, buildFigures, error) {
	if !traced {
		res, err := build.Outsource(ctx, spec, opts...)
		return res, buildFigures{}, err
	}
	type event struct {
		p  build.Progress
		at time.Time
	}
	var (
		mu     sync.Mutex
		events []event
		ctr    metrics.Counter
		m0, m1 runtime.MemStats
	)
	opts = append(opts, build.WithProgress(func(p build.Progress) {
		mu.Lock()
		events = append(events, event{p, time.Now()})
		mu.Unlock()
	}))
	if hashed {
		opts = append(opts, build.WithHasher(hashing.New(&ctr)))
	}
	runtime.ReadMemStats(&m0)
	res, err := build.Outsource(ctx, spec, opts...)
	end := time.Now()
	runtime.ReadMemStats(&m1)
	if err != nil {
		return nil, buildFigures{}, err
	}
	bf := buildFigures{
		stageMs: map[core.Stage]float64{},
		hashes:  ctr.Hashes,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / 1e6,
		allocs:  float64(m1.Mallocs - m0.Mallocs),
	}
	// A stage lasts until the next stage of the same shard starts, the
	// last one until Outsource returns; set-level work (ShardNone) lasts
	// until any next stage starts. Shards build concurrently, so a
	// sharded build sums its shards' stage times.
	for i, e := range events {
		if e.p.Stage == core.StagePairs {
			bf.pairUnits += e.p.Units
		}
		next := end
		for _, f := range events[i+1:] {
			if e.p.Shard == build.ShardNone || f.p.Shard == e.p.Shard {
				next = f.at
				break
			}
		}
		bf.stageMs[e.p.Stage] += ms(next.Sub(e.at))
	}
	switch {
	case res.Tree != nil:
		st := res.Tree.Stats()
		bf.subs, bf.sigs = st.Subdomains, st.Signatures
	case res.Set != nil:
		bf.subs, bf.sigs = res.Set.NumSubdomains(), res.Set.SignatureCount()
	}
	return res, bf, nil
}

// serve runs h on a loopback listener until the returned stop is called;
// stop returns once the serving goroutine has ended.
func serve(h http.Handler) (string, func(), error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", nil, err
	}
	hs := &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if err := hs.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "perfbench: serve:", err)
		}
	}()
	stop := func() {
		hs.Close()
		<-done
	}
	return "http://" + ln.Addr().String(), stop, nil
}

// httpClient is a keep-alive client for one hop; traced clients carry the
// trace header.
func httpClient(base *http.Client, rec *recorder) *http.Client {
	if rec == nil {
		return base
	}
	next := base.Transport
	if next == nil {
		next = http.DefaultTransport
	}
	c := *base
	c.Transport = propagate{next}
	return &c
}

func newLoopbackClient() *http.Client {
	t := http.DefaultTransport.(*http.Transport).Clone()
	t.MaxIdleConnsPerHost = 16
	return &http.Client{Transport: t}
}

// handlerFor wraps a handler so a traced request's context carries its
// trace; untraced runs serve the handler bare.
func handlerFor(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return extractTrace(h)
}

// deployTree is the vqserve default: one one-signature tree behind
// server.Server and the IFMH handler, dialed by a transport.Remote.
func deployTree(ctx context.Context, cfg config, rec *recorder) (*deployment, error) {
	seed := cfg.seed
	d := &deployment{}
	spec, err := publicationSpec(seed)
	if err != nil {
		return nil, err
	}
	d.spec = spec
	res, bf, err := outsource(ctx, spec, rec != nil, rec != nil, build.WithShuffle(publicationSeed), build.WithWorkers(0))
	if err != nil {
		return nil, err
	}
	d.build, d.owned = bf, res
	srv, err := server.New(server.IFMH{Tree: res.Tree})
	if err != nil {
		return nil, err
	}
	d.servers, d.ownedSrv = []*server.Server{srv}, srv
	var h *transport.Handler
	if rec == nil {
		h, err = transport.NewIFMHHandler(srv, res.Public)
	} else {
		h, err = transport.NewIFMHHandlerFor(srv, tracedServer{srv, tracing{srv, rec, "server"}}, res.Public)
	}
	if err != nil {
		return nil, err
	}
	if err := d.dialServed(handlerFor(h, rec), rec); err != nil {
		d.close()
		return nil, err
	}
	return d, nil
}

// deployStream is the vqfront topology: a two-shard multi-signature set is
// saved as an artifact, each shard is opened from it and served by its
// own server (vqserve -load -shard i), and a front dialed over both with
// default options is served to the client.
func deployStream(ctx context.Context, cfg config, rec *recorder) (*deployment, error) {
	seed := cfg.seed
	d := &deployment{}
	ok := false
	defer func() {
		if !ok {
			d.close()
		}
	}()
	spec, err := publicationSpec(seed)
	if err != nil {
		return nil, err
	}
	d.spec = spec
	// No hash count: the shard builds run concurrently and would share
	// build.WithHasher's unsynchronised counter (a data race the race
	// detector reports), so build.hashes reads 0 here.
	res, bf, err := outsource(ctx, spec, rec != nil, false, build.WithShuffle(publicationSeed), build.WithWorkers(0),
		build.WithMode(core.MultiSignature), build.WithShards(2, 0))
	if err != nil {
		return nil, err
	}
	d.build = bf
	if err := os.MkdirAll(cfg.scratch, 0o755); err != nil {
		return nil, err
	}
	dir, err := os.MkdirTemp(cfg.scratch, "artifact-")
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { os.RemoveAll(dir) })
	t := time.Now()
	if _, err := artifact.Save(dir, res); err != nil {
		return nil, err
	}
	d.saveMs = ms(time.Since(t))

	hc := httpClient(front.HTTPClient(), rec)
	d.closers = append(d.closers, hc.CloseIdleConnections)
	groups := make([][]string, res.Set.NumShards())
	for i := range groups {
		t := time.Now()
		a, err := artifact.OpenShard(dir, i)
		if err != nil {
			return nil, err
		}
		d.openMs += ms(time.Since(t))
		d.closers = append(d.closers, func() { a.Close() })
		b, err := a.Backend()
		if err != nil {
			return nil, err
		}
		srv, err := server.New(b)
		if err != nil {
			return nil, err
		}
		d.servers = append(d.servers, srv)
		p, err := transport.IFMHParams(srv, a.Public)
		if err != nil {
			return nil, err
		}
		p.Artifact, p.Provenance = a.HashHex(), "loaded"
		var served backend.Backend = srv
		if rec != nil {
			served = tracedServer{srv, tracing{srv, rec, "server"}}
		}
		h, err := transport.NewBackendHandler(served, p)
		if err != nil {
			return nil, err
		}
		url, stop, err := serve(handlerFor(h, rec))
		if err != nil {
			return nil, err
		}
		d.closers = append(d.closers, stop)
		groups[i] = []string{url}
	}
	f, params, err := front.DialFront(groups, hc, front.Options{})
	if err != nil {
		return nil, err
	}
	d.closers = append(d.closers, func() { f.Close() })
	var served backend.Backend = f
	if rec != nil {
		served = tracedFront{f, tracing{f, rec, "front"}}
	}
	h, err := transport.NewBackendHandler(served, params)
	if err != nil {
		return nil, err
	}
	if err := d.dialServed(handlerFor(h, rec), rec); err != nil {
		return nil, err
	}
	ok = true
	return d, nil
}

// dialServed serves h on loopback and dials a verifying client to it,
// reading the bundle from /params.
func (d *deployment) dialServed(h http.Handler, rec *recorder) error {
	url, stop, err := serve(h)
	if err != nil {
		return err
	}
	d.closers = append(d.closers, stop)
	hc := httpClient(newLoopbackClient(), rec)
	d.closers = append(d.closers, hc.CloseIdleConnections)
	r, err := transport.DialRemote(url, hc)
	if err != nil {
		return err
	}
	pub, ok := r.Client().Public()
	if !ok {
		return fmt.Errorf("perfbench: %s serves no IFMH bundle", url)
	}
	d.remote, d.pub = r, pub
	return nil
}
