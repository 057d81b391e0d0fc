package core

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"math/big"

	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
	"aqverify/internal/sweep"
)

// Delta is a table mutation in digested form: the mutated table plus
// the index bookkeeping relating it to the previous table. The build
// plane derives it from a build.Mutation batch under the canonical
// rule — deletes compact the survivors preserving their order, updates
// replace in place, inserts append at the end — which keeps the
// survivor remap monotone, the property the incremental stages rely
// on.
type Delta struct {
	// Table is the mutated table.
	Table record.Table
	// CleanRemap maps each previous record index to its new index, or
	// -1 when the record was deleted or updated. An updated record is
	// not "clean": its digest, function and pairs all change even
	// though its row survives.
	CleanRemap []int
	// DirtyNew marks each new index whose record is inserted or
	// updated — exactly the complement of CleanRemap's image.
	DirtyNew []bool
}

// dirtyCount returns the number of dirty new records.
func (d Delta) dirtyCount() int {
	n := 0
	for _, b := range d.DirtyNew {
		if b {
			n++
		}
	}
	return n
}

// validate checks the delta's bookkeeping against the previous table.
func (d Delta) validate(prevLen int) error {
	if d.Table.Len() == 0 {
		return fmt.Errorf("core: a mutation cannot empty the table")
	}
	if len(d.CleanRemap) != prevLen {
		return fmt.Errorf("core: remap has %d entries for a %d-record table", len(d.CleanRemap), prevLen)
	}
	if len(d.DirtyNew) != d.Table.Len() {
		return fmt.Errorf("core: dirty mask has %d entries for a %d-record table", len(d.DirtyNew), d.Table.Len())
	}
	last := -1
	clean := 0
	for i, ni := range d.CleanRemap {
		if ni < 0 {
			continue
		}
		if ni >= d.Table.Len() {
			return fmt.Errorf("core: remap[%d] = %d outside the new table", i, ni)
		}
		if ni <= last {
			return fmt.Errorf("core: remap is not monotone at %d", i)
		}
		if d.DirtyNew[ni] {
			return fmt.Errorf("core: new index %d is both clean and dirty", ni)
		}
		last = ni
		clean++
	}
	if clean+d.dirtyCount() != d.Table.Len() {
		return fmt.Errorf("core: %d clean + %d dirty records != %d", clean, d.dirtyCount(), d.Table.Len())
	}
	return nil
}

// ApplyCtx incrementally re-outsources the tree under a table
// mutation, returning a new tree at the given epoch; the receiver is
// left untouched, so a server can keep answering from its snapshot
// while the next epoch builds. The result is byte-identical to a full
// BuildCtx of the mutated table under the retained build parameters —
// the canonical insertion order makes the I-tree shape a pure function
// of the intersection set, so the incremental path and the full path
// must meet at the same bytes (TestApplyEquivalence holds both to
// that).
//
// The localized work: record digests are copied for clean rows, pair
// enumeration visits only pairs touching dirty rows (O(b·n) instead
// of O(n²)), the canonical I-tree is reconstructed directly from the
// merged arrangement in O(S) with no exact-rational descents, and the
// sweep plan replays clean boundaries, re-sorting only dirty ones.
// The per-subdomain FMH lists, the hash propagation and (in
// multi-signature mode) the signatures are rebuilt in full — every
// subdomain's function list contains every record, so any real
// mutation invalidates all of them; there is no sublinear form to
// exploit. Signatures whose signed digest is unchanged are reused
// rather than re-signed.
//
// Trees that were not built in canonical order (Shuffle off) or over
// multivariate templates have no content-determined shape to maintain;
// for those ApplyCtx falls back to a full rebuild under the same API —
// still correct, just not localized.
func (t *Tree) ApplyCtx(ctx context.Context, d Delta, epoch uint64, progress func(Stage, int)) (*Tree, error) {
	if epoch <= t.epoch {
		return nil, fmt.Errorf("core: apply epoch %d is not above the current epoch %d", epoch, t.epoch)
	}
	if err := d.validate(t.table.Len()); err != nil {
		return nil, err
	}
	p := t.bp
	p.Progress = progress
	p.Epoch = epoch
	if p.Signer == nil {
		// Covers both legacy trees and serve-only reconstructions
		// (FromSnapshot / a loaded artifact): without the owner's key
		// no next epoch can be signed here.
		return nil, fmt.Errorf("core: tree is serve-only (no signer retained; e.g. reconstructed from an artifact); apply mutations on the owner's build and publish a new epoch")
	}
	if t.arr == nil {
		// No canonical arrangement retained: fall back to a full
		// rebuild at the bumped epoch.
		return BuildCtx(ctx, d.Table, p)
	}

	fs, err := p.Template.InterpretTable(d.Table)
	if err != nil {
		return nil, err
	}
	nt := &Tree{
		mode:     t.mode,
		space:    t.space,
		domain:   t.domain,
		template: t.template,
		hasher:   t.hasher,
		table:    d.Table,
		fs:       fs,
		verifier: t.verifier,
		epoch:    epoch,
		bp:       p,
	}
	nt.bp.Progress = nil

	// Digest: copy clean rows, hash dirty ones.
	b := d.dirtyCount()
	p.progress(StageDigest, b)
	nt.recDigests = make([]hashing.Digest, d.Table.Len())
	for oi, ni := range d.CleanRemap {
		if ni >= 0 {
			nt.recDigests[ni] = t.recDigests[oi]
		}
	}
	for ni, dirty := range d.DirtyNew {
		if dirty {
			nt.recDigests[ni] = nt.hasher.Record(d.Table.Records[ni])
		}
	}

	space := t.space.(*geometry.Space1D)

	// Pairs: enumerate only the pairs touching dirty rows.
	dirtyInters, err := itree.DirtyPairs1D(fs, d.DirtyNew, t.domain)
	if err != nil {
		return nil, err
	}
	p.progress(StagePairs, len(dirtyInters))
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	// I-tree: merge the arrangement and reconstruct directly.
	merged, classes, err := itree.MergeArrangement1D(space, t.arr, d.CleanRemap, dirtyInters)
	if err != nil {
		return nil, err
	}
	p.progress(StageITree, merged.NumBreakpoints())
	nt.arr = merged
	if nt.itree, err = itree.BuildCanonical1D(space, merged); err != nil {
		return nil, err
	}

	// Sweep: replay clean boundaries, re-sort dirty ones.
	p.progress(StageSweep, len(classes))
	bs := make([]sweep.Boundary, len(classes))
	for k, c := range classes {
		bs[k] = sweep.Boundary{Old: c.Old, Dirty: c.Dirty, Group: groupPairs(merged.Groups[k])}
	}
	witnessAt := func(k int) *big.Rat {
		return space.WitnessRat(nt.itree.Subs[k].Region)
	}
	plan, err := sweep.ApplyCtx(ctx, fs, t.plan, d.CleanRemap, d.DirtyNew, bs, witnessAt)
	if err != nil {
		return nil, err
	}

	// Lists + propagate: full — every subdomain's list changed.
	workers := p.workers()
	if err := nt.listsFromPlan(ctx, plan, p, workers); err != nil {
		return nil, err
	}
	p.progress(StagePropagate, nt.itree.NodeCount)
	if err := nt.propagateHashes(ctx, workers); err != nil {
		return nil, err
	}
	if err := nt.signReuse(ctx, p, t); err != nil {
		return nil, err
	}
	return nt, nil
}

// signReuse is the sign stage with previous-epoch signature reuse: a
// signature whose signed digest is unchanged is copied instead of
// re-signed. In practice a real mutation changes every subdomain's FMH
// root (every list contains every record), so reuse fires mainly for
// no-op updates — but it costs one digest comparison, and it spares
// randomized schemes from churning bytes that did not change.
func (t *Tree) signReuse(ctx context.Context, p Params, prev *Tree) error {
	switch p.Mode {
	case OneSignature:
		if prev.mode == OneSignature && prev.rootDigest == t.rootDigest && prev.rootSig != nil {
			p.progress(StageSign, 0)
			t.rootSig = prev.rootSig
			t.sigCount = 1
			return nil
		}
		return t.sign(ctx, p)
	case MultiSignature:
		// Index the previous subdomain signatures by signed digest,
		// with an uncounted hasher: the lookups are bookkeeping, not
		// construction cost.
		uh := hashing.New(nil)
		prevSigs := make(map[hashing.Digest][]byte, len(prev.subs))
		for _, si := range prev.subs {
			if si.Sig == nil || si.IneqEnc == nil {
				continue
			}
			prevSigs[uh.MultiSig(uh.Ineqs(si.IneqEnc), si.List.Root())] = si.Sig
		}
		p.progress(StageSign, len(t.subs))
		err := t.parallelChunks(ctx, p.workers(), len(t.subs), func(h *hashing.Hasher, lo, hi int) error {
			for _, si := range t.subs[lo:hi] {
				si.Ineqs = t.space.Halfspaces(si.Sub.Region)
				si.IneqEnc = geometry.EncodeHalfspaces(nil, si.Ineqs)
				d := h.MultiSig(h.Ineqs(si.IneqEnc), si.List.Root())
				if s, ok := prevSigs[d]; ok {
					si.Sig = s
					continue
				}
				s, err := p.Signer.Sign(d[:])
				if err != nil {
					return fmt.Errorf("core: signing subdomain %d: %w", si.Sub.ID, err)
				}
				h.Counter().AddSign(1)
				si.Sig = s
			}
			return nil
		})
		if err != nil {
			return err
		}
		t.sigCount = len(t.subs)
		return nil
	default:
		return fmt.Errorf("core: unknown mode %v", p.Mode)
	}
}

// Fingerprint returns a canonical content digest of the published
// bundle: the mode, epoch, domain, root digest and signature, and
// every subdomain's FMH root, inequality encoding and signature, plus
// the sweep plan. Two trees with equal fingerprints answer and verify
// identically; the mutation plane's equivalence tests compare
// fingerprints, and the front plane can use them to tell a forked
// server from a lagging one when epochs collide.
func (t *Tree) Fingerprint() hashing.Digest {
	h := sha256.New()
	var w [8]byte
	put64 := func(v uint64) { binary.BigEndian.PutUint64(w[:], v); h.Write(w[:]) }
	putBytes := func(b []byte) { put64(uint64(len(b))); h.Write(b) }
	put64(uint64(t.mode))
	put64(t.epoch)
	for _, lo := range t.domain.Lo {
		put64(math.Float64bits(lo))
	}
	for _, hi := range t.domain.Hi {
		put64(math.Float64bits(hi))
	}
	h.Write(t.rootDigest[:])
	putBytes(t.rootSig)
	put64(uint64(len(t.subs)))
	for _, si := range t.subs {
		root := si.List.Root()
		h.Write(root[:])
		putBytes(si.IneqEnc)
		putBytes(si.Sig)
	}
	put64(uint64(len(t.plan.BasePerm)))
	for _, f := range t.plan.BasePerm {
		put64(uint64(f))
	}
	put64(uint64(len(t.plan.Swaps)))
	for _, sw := range t.plan.Swaps {
		put64(uint64(len(sw)))
		for _, pos := range sw {
			put64(uint64(pos))
		}
	}
	var out hashing.Digest
	copy(out[:], h.Sum(nil))
	return out
}
