// Package core implements the paper's contribution: the Intersection and
// Function Merkle Hash tree (IFMH-tree) and its two signing schemes.
//
// An IFMH-tree combines
//
//   - an IMH-tree — the I-tree over the pairwise intersection hyperplanes,
//     augmented with Merkle hashes so that a root-to-leaf path
//     authenticates the subdomain lookup — and
//   - one FMH-tree per subdomain — a Merkle tree over that subdomain's
//     sorted function list, bracketed by f_min/f_max sentinels.
//
// In the one-signature scheme only the IMH root digest is signed;
// verification objects carry the IMH search path. In the multi-signature
// scheme every subdomain's digest H(H(ineqs)|fmhRoot) is signed;
// verification objects carry the subdomain's inequality set instead of
// the path.
//
// The server-side entry point is Build + Tree.Process; the client-side
// one is Verify with the owner's PublicParams.
package core

import (
	"fmt"
	"runtime"

	"aqverify/internal/fmh"
	"aqverify/internal/funcs"
	"aqverify/internal/geometry"
	"aqverify/internal/hashing"
	"aqverify/internal/itree"
	"aqverify/internal/record"
	"aqverify/internal/sig"
	"aqverify/internal/sweep"
)

// Mode selects the signing scheme.
type Mode int

const (
	// OneSignature signs only the IMH-tree root (paper §3.1 step 4,
	// first approach).
	OneSignature Mode = iota
	// MultiSignature signs every subdomain's inequality-set + FMH-root
	// digest (second approach).
	MultiSignature
)

// String returns the mode name.
func (m Mode) String() string {
	switch m {
	case OneSignature:
		return "one-signature"
	case MultiSignature:
		return "multi-signature"
	default:
		return fmt.Sprintf("core.Mode(%d)", int(m))
	}
}

// DefaultSemTol is the default semantic-check tolerance used by verifying
// clients for the score-monotonicity check. Scores themselves are computed
// bit-identically by server and client; the tolerance only absorbs the gap
// between the owner's exact-rational construction order and float
// evaluation of near-tied scores.
const DefaultSemTol = 1e-9

// Params configures Build.
type Params struct {
	// Mode selects one-signature or multi-signature.
	Mode Mode
	// Signer is the data owner's signing key.
	Signer sig.Signer
	// Domain is the owner-specified bounded domain of the function
	// variables; its dimension must match the template.
	Domain geometry.Box
	// Template interprets records as functions.
	Template funcs.Template
	// Hasher provides the one-way hash; nil means an uninstrumented
	// SHA-256 hasher.
	Hasher *hashing.Hasher
	// Shuffle randomizes intersection insertion order (recommended; see
	// the ablation bench). Seed seeds it.
	Shuffle bool
	Seed    int64
	// Materialize stores every subdomain's permutation and builds every
	// FMH-tree from scratch — the paper's literal O(S·n) layout. The
	// default (false) uses the delta representation: one base
	// permutation, per-boundary swaps, and persistent FMH-trees sharing
	// structure, costing O(n + S log n). Multivariate databases always
	// materialize (there is no sweep order to exploit).
	Materialize bool
	// Workers bounds the construction worker pool sharding record
	// digesting, per-subdomain FMH-list building and multi-signature
	// signing. Zero (the default) means runtime.GOMAXPROCS(0); 1
	// reproduces the serial path. The built tree — root digest,
	// signatures, hash counts — is identical for every worker count.
	Workers int
	// Inters1D optionally supplies a precomputed intersection
	// enumeration for 1-D builds. The domain-sharded builder (package
	// shard) partitions one global itree.PairsPartition1D enumeration
	// across its sub-box builds through this field instead of paying the
	// O(n²) pair scan once per shard — and itself accepts a whole-domain
	// enumeration through it (shard.BuildCtx re-buckets it linearly),
	// which is how the build plane shares one scan between its cut
	// planner and the shard build. It must contain every pair whose
	// breakpoint lies inside Domain (a superset is fine: out-of-domain
	// entries are pruned by the exact I-tree checks). Nil means Build
	// enumerates via itree.Pairs1D; ignored for multivariate templates.
	Inters1D []itree.Intersection
	// Progress, when non-nil, is invoked from the building goroutine at
	// the start of every construction stage with the stage and the number
	// of units (records, intersections, subdomains, tree nodes, ...) the
	// stage is about to process. It must be cheap and must not block.
	Progress func(stage Stage, units int)
	// Epoch stamps the built tree's publication epoch. Zero means 1 —
	// the first epoch of a fresh outsourcing; ApplyCtx bumps it per
	// mutation batch. Clients pin the epoch their verification ran
	// against, so a bundle's epoch is part of its published identity.
	Epoch uint64
}

// Stage names one construction stage for Params.Progress callbacks, in
// the order the stages run.
type Stage string

// The construction stages, in execution order. StagePairs and StageSweep
// occur only for univariate templates.
const (
	StageDigest    Stage = "digest"    // record digesting
	StagePairs     Stage = "pairs"     // pairwise-intersection enumeration (1-D)
	StageITree     Stage = "itree"     // I-tree construction
	StageSweep     Stage = "sweep"     // subdomain sweep plan (1-D)
	StageLists     Stage = "lists"     // per-subdomain FMH-list construction
	StagePropagate Stage = "propagate" // IMH-tree hash propagation
	StageSign      Stage = "sign"      // root / per-subdomain signing
)

// workers resolves the configured worker count; zero or negative means
// one worker per available CPU.
func (p Params) workers() int {
	if p.Workers > 0 {
		return p.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// PublicParams is what the data owner publishes out of band: everything a
// client needs to verify query results.
type PublicParams struct {
	Verifier sig.Verifier
	Template funcs.Template
	Mode     Mode
	// SemTol is the semantic-check tolerance; zero means DefaultSemTol.
	SemTol float64
	// Epoch is the monotonic publication epoch of the bundle the
	// parameters describe: 1 for a fresh outsourcing, bumped by every
	// applied mutation batch. Zero marks a pre-epoch (static) bundle —
	// the signature-mesh baseline and legacy deployments. An answer
	// verifies against exactly one epoch's bundle; clients compare
	// epochs to detect a stale or forked server before misreading a
	// verification failure as tampering.
	Epoch uint64
}

// SubInfo is the per-subdomain state of a built tree.
type SubInfo struct {
	Sub  *itree.Subdomain
	List *fmh.List
	// Perm is the sorted order (position -> record index); nil in delta
	// mode, where permutations are replayed through a cursor.
	Perm []int
	// IneqEnc is the canonical encoding of the subdomain's inequality
	// set; Ineqs is its decoded form (multi-signature mode only).
	IneqEnc []byte
	Ineqs   []geometry.Halfspace
	// Sig is the subdomain signature (multi-signature mode only).
	Sig []byte
}

// Tree is a built IFMH-tree, the server-side authenticated data structure.
type Tree struct {
	mode     Mode
	space    geometry.Space
	domain   geometry.Box
	template funcs.Template
	hasher   *hashing.Hasher

	table      record.Table
	fs         []funcs.Linear
	recDigests []hashing.Digest

	itree *itree.Tree
	subs  []*SubInfo

	// Delta-mode sweep data (1-D): the base permutation and per-boundary
	// swaps, replayed through a cursor when serving queries.
	plan   sweep.Plan
	cursor *sweep.Cursor

	rootDigest hashing.Digest
	rootSig    []byte // one-signature mode
	verifier   sig.Verifier
	sigCount   int

	// Mutation-plane state: the publication epoch, the canonical
	// arrangement the tree shape is a function of (1-D canonical-order
	// builds only), and the build parameters, retained so ApplyCtx can
	// rebuild stages the same way the original construction did.
	epoch uint64
	arr   *itree.Arrangement1D
	bp    Params

	// permCache is the optional delta-mode permutation cache (see
	// SetPermCache); behind an atomic pointer so installation can race
	// in-flight queries safely.
	permCache permCacheHook
}

// SetHasher rebinds the tree to h for the hashing it does after
// construction (mutation batches applied to it). A builder that ran
// the construction on a hasher of its own — one per concurrent shard
// build — hands the tree back to the caller's hasher with it; the
// tree's bytes never depend on which hasher produced them. It must not
// be called while the tree is in use.
func (t *Tree) SetHasher(h *hashing.Hasher) {
	t.hasher = h
	t.bp.Hasher = h
}

// Mode returns the tree's signing scheme.
func (t *Tree) Mode() Mode { return t.mode }

// Public returns the parameters the owner publishes for clients.
func (t *Tree) Public() PublicParams {
	return PublicParams{
		Verifier: t.verifier,
		Template: t.template,
		Mode:     t.mode,
		SemTol:   DefaultSemTol,
		Epoch:    t.epoch,
	}
}

// Epoch returns the tree's publication epoch (1 for a fresh build,
// bumped by every applied mutation batch).
func (t *Tree) Epoch() uint64 { return t.epoch }

// Table returns the outsourced table the tree authenticates. The
// mutation plane indexes its deletes and updates against it.
func (t *Tree) Table() record.Table { return t.table }

// NumSubdomains returns the subdomain (FMH-tree) count.
func (t *Tree) NumSubdomains() int { return len(t.subs) }

// Domain returns the owner-specified bounded domain the tree partitions
// (one shard's sub-box in a domain-sharded deployment).
func (t *Tree) Domain() geometry.Box { return t.domain }

// NumRecords returns the database size.
func (t *Tree) NumRecords() int { return t.table.Len() }

// SignatureCount returns how many signatures the construction produced
// (1 for one-signature, S for multi-signature) — the paper's Fig 5a
// metric.
func (t *Tree) SignatureCount() int { return t.sigCount }

// Depth returns the IMH-tree depth.
func (t *Tree) Depth() int { return t.itree.Depth() }
