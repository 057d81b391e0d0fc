package server

import (
	"context"
	"iter"

	"aqverify/internal/backend"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/wire"
)

// The Server is itself a backend.Backend: the unified query plane's
// methods answer exactly as Handle would — same routing, same bytes,
// same cumulative metrics — but carry a context and the plane's
// functional options. Handle remains as the context-free single-query
// entry point of the in-process data user (client.Client.Query) and of
// vqdemo's attack replay.
var _ backend.Backend = (*Server)(nil)

// Query implements backend.Backend. The answered query is recorded in
// the server's cumulative metrics exactly as Handle records it.
func (s *Server) Query(ctx context.Context, q query.Query, opts ...backend.Option) (backend.Answer, error) {
	return backend.DriveQuery(ctx, s.processRecorded, q, opts...)
}

// QueryBatch implements backend.Backend. Against a sharded backend the
// batch is routed up front and dispatched in shard-contiguous order:
// unroutable queries fail without occupying a worker, and consecutive workers hit the same tree
// instead of interleaving all K.
func (s *Server) QueryBatch(ctx context.Context, qs []query.Query, opts ...backend.Option) ([]backend.Answer, []error) {
	// The routing pass and the per-query snapshots may straddle a Swap;
	// that is safe because a swap never changes the shard plan (Swap
	// enforces the same shard count, and mutations keep the sub-boxes),
	// so the old snapshot's grouping is valid for the new one.
	sharded := s.serving.Load().sharded
	if sharded == nil {
		return backend.DriveBatch(ctx, s.processRecorded, qs, opts...)
	}
	_, groups, rerrs := sharded.Group(qs)
	order := make([]int, 0, len(qs))
	for _, g := range groups {
		order = append(order, g...)
	}
	answers, errs := backend.DriveBatchOrdered(ctx, s.processRecorded, qs, order, opts...)
	for i, err := range rerrs {
		if err != nil {
			errs[i] = err
			answers[i] = backend.Answer{Shard: wire.ShardNone}
			s.record(metrics.Counter{}, wire.ShardNone, err)
		}
	}
	return answers, errs
}

// QueryStream implements backend.Backend.
func (s *Server) QueryStream(ctx context.Context, qs []query.Query, opts ...backend.Option) iter.Seq2[int, backend.BatchResult] {
	return backend.DriveStream(ctx, s.processRecorded, qs, opts...)
}

// processRecorded answers one query through the hosted backend, folding
// its cost into the server's cumulative metrics (the driver's counter
// may span many queries, so the per-query cost is measured locally and
// merged).
func (s *Server) processRecorded(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	var local metrics.Counter
	sh, epoch, out, err := s.processOnce(q, &local)
	ctr.Add(local)
	return sh, epoch, out, err
}

// processOnce routes and answers one query, recording it, and reports
// the answering shard (wire.ShardNone for unsharded backends and
// unroutable queries) and the epoch it answered under. The serving
// snapshot is loaded exactly once, so a query that races a Swap is
// routed, answered and attributed against one consistent epoch.
func (s *Server) processOnce(q query.Query, ctr *metrics.Counter) (int, uint64, []byte, error) {
	sv := s.serving.Load()
	if sv.sharded != nil {
		sh, err := sv.sharded.Shard(q)
		if err != nil {
			s.record(metrics.Counter{}, wire.ShardNone, err)
			return wire.ShardNone, 0, nil, err
		}
		out, err := sv.sharded.ProcessOn(sh, q, ctr)
		s.record(*ctr, sh, err)
		return sh, sv.shardEpoch(sh), out, err
	}
	out, err := sv.backend.Process(q, ctr)
	s.record(*ctr, wire.ShardNone, err)
	return wire.ShardNone, sv.epoch, out, err
}
