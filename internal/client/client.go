// Package client models the data user: it sends analytic queries to the
// cloud server, receives serialized answers over an (untrusted) channel,
// and verifies soundness and completeness against the data owner's
// published parameters before accepting any record.
package client

import (
	"errors"
	"fmt"
	"sync"

	"aqverify/internal/core"
	"aqverify/internal/mesh"
	"aqverify/internal/metrics"
	"aqverify/internal/query"
	"aqverify/internal/record"
	"aqverify/internal/server"
	"aqverify/internal/wire"
)

// Channel transforms answer bytes in flight — the network of the paper's
// adversary model. A nil Channel is the identity.
type Channel func([]byte) []byte

// ErrRejected wraps every reason a client refuses an answer: failed
// verification, or bytes that do not even parse.
var ErrRejected = errors.New("client: answer rejected")

// Client verifies answers from one outsourced database. Exactly one of
// IFMH and Mesh must be set, matching the server's backend.
type Client struct {
	IFMH *core.PublicParams
	Mesh *mesh.PublicParams

	mu    sync.Mutex
	total metrics.Counter
}

// NewIFMH creates a client for an IFMH-backed database.
func NewIFMH(pub core.PublicParams) *Client { return &Client{IFMH: &pub} }

// NewMesh creates a client for a mesh-backed database.
func NewMesh(pub mesh.PublicParams) *Client { return &Client{Mesh: &pub} }

// Query sends q to the server through the channel and returns the
// verified records. Any tampering — by the server or the channel — yields
// an error wrapping ErrRejected.
func (c *Client) Query(s *server.Server, ch Channel, q query.Query) ([]record.Record, error) {
	raw, err := s.Handle(q)
	if err != nil {
		return nil, fmt.Errorf("client: server error: %w", err)
	}
	if ch != nil {
		raw = ch(raw)
	}
	var ctr metrics.Counter
	ctr.AddBytes(uint64(len(raw)))
	recs, err := c.verify(q, raw, &ctr)
	c.mu.Lock()
	c.total.Add(ctr)
	c.mu.Unlock()
	return recs, err
}

// Check parses and verifies one serialized answer without contacting a
// server — the entry point for transports that deliver the bytes
// themselves (e.g. the raw bytes of transport.Remote.Query against a
// mesh server). Metrics accumulate as with Query.
func (c *Client) Check(q query.Query, raw []byte) ([]record.Record, error) {
	var ctr metrics.Counter
	ctr.AddBytes(uint64(len(raw)))
	recs, err := c.verify(q, raw, &ctr)
	c.mu.Lock()
	c.total.Add(ctr)
	c.mu.Unlock()
	return recs, err
}

// verify parses and verifies one serialized answer.
func (c *Client) verify(q query.Query, raw []byte, ctr *metrics.Counter) ([]record.Record, error) {
	switch {
	case c.IFMH != nil:
		ans, err := wire.DecodeIFMH(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		if !sameQuery(q, ans.Query) {
			return nil, fmt.Errorf("%w: server answered a different query", ErrRejected)
		}
		if err := core.Verify(*c.IFMH, q, ans.Records, &ans.VO, ctr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		return ans.Records, nil
	case c.Mesh != nil:
		ans, err := wire.DecodeMesh(raw)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		if !sameQuery(q, ans.Query) {
			return nil, fmt.Errorf("%w: server answered a different query", ErrRejected)
		}
		if err := mesh.Verify(*c.Mesh, q, ans.Records, &ans.VO, ctr); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrRejected, err)
		}
		return ans.Records, nil
	default:
		return nil, fmt.Errorf("client: no public parameters configured")
	}
}

// sameQuery checks the server echoed the query the client sent. The
// verification itself uses the client's own copy of q, so this check only
// guards against confused-server responses, not security.
func sameQuery(a, b query.Query) bool { return query.Equal(a, b) }

// Stats returns the client's cumulative verification metrics.
func (c *Client) Stats() metrics.Counter {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.total
}
