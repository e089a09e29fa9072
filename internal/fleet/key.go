// Package fleet makes N xdatad processes behave as one cache-coherent,
// fault-tolerant generation service. It contributes four pieces, each
// independently testable and all wired together by internal/service:
//
//   - Content keys (key.go): a canonical SHA-256 over the normalized
//     query tree, the canonical schema rendering, and the clamped
//     generation options. Two requests that normalize to the same
//     (schema, query, options) triple get the same key no matter how
//     the SQL was spelled, which is what makes cross-node routing and
//     cross-request caching coherent.
//   - Consistent-hash ring (ring.go): maps a content key to its owning
//     node with virtual-node smoothing, so adding or losing one node
//     remaps only its arc of the key space.
//   - Per-peer circuit breaker (breaker.go): closed → open after a run
//     of consecutive failures, half-open probe after a cooldown,
//     re-closed on probe success.
//   - Router (router.go): forwards a request to the key's owner with
//     per-hop deadlines derived from the request budget, an escalating
//     1x/4x/16x retry ladder with full-jitter backoff under a
//     per-request retry budget, and background /readyz health polling
//     feeding the breakers.
//     When every path to the owner is exhausted the router reports
//     ErrPeerUnavailable and the caller degrades to a local solve.
//
// The crash-safe cross-request suite cache (cache.go) is the fourth
// piece: a process-wide content-addressed LRU (key → marshaled
// complete-suite body) with singleflight collapse of concurrent identical
// requests, byte-cap eviction, epoch-based invalidation, and
// checksummed entries so a torn or corrupted entry is detected,
// dropped and recomputed instead of served.
package fleet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"strings"

	"repro/internal/core"
	"repro/internal/qtree"
	"repro/internal/schema"
)

// Key is the canonical content address of one generation request: a
// SHA-256 digest of the normalized (schema, query, options) triple.
type Key struct {
	sum [sha256.Size]byte
}

// String returns the full hex form (used as the cache map key and in
// logs).
func (k Key) String() string { return hex.EncodeToString(k.sum[:]) }

// Hash64 returns the ring-position hash: the digest's first 8 bytes.
// SHA-256 output is uniform, so any fixed window is an unbiased ring
// point.
func (k Key) Hash64() uint64 { return binary.BigEndian.Uint64(k.sum[:8]) }

// keySchemaVersion is bumped whenever the canonical rendering below
// changes shape, so stale cache entries from an older binary can never
// collide with new keys.
const keySchemaVersion = 4

// ContentKey derives the canonical content key for generating a suite
// from q against sch under opts.
//
// The canonical forms are the round-trippable printers the repo
// already maintains: schema.String() (stable relation order, quoted
// identifiers, FK clauses) and qtree.Query.SQLString() (the normalized
// single-block rendering — reparsing it yields the same query, so any
// two spellings of the same normalized query share a key).
//
// The options are folded in as their JSON encoding, which core.Options
// declares as the fields a suite depends on, so a new option joins the
// key without a change here. That deliberately includes the budget
// fields: a *complete* suite is budget-independent (the
// solver is deterministic, so a goal solved within its budget returns
// the same dataset as an unbudgeted run, and only complete suites are
// ever cached), but keying on the clamped budgets costs hits only when
// clients vary their asks and makes the key auditable without that
// argument. Parallelism is excluded by the encoding: the generator
// documents byte-identical suites for every worker count.
//
// InputDB-seeded generation is not content-addressable by this key
// (the encoding excludes the dataset); callers must not cache or route
// such requests. The service never sets InputDB.
func ContentKey(sch *schema.Schema, q *qtree.Query, opts core.Options) Key {
	enc, err := json.Marshal(opts)
	if err != nil {
		// Only a field neither scalar nor tagged "-" can fail to encode.
		panic(fmt.Sprintf("fleet: encode options: %v", err))
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "xdata-key-v%d\x00", keySchemaVersion)
	sb.WriteString(sch.String())
	sb.WriteByte(0)
	sb.WriteString(q.SQLString())
	sb.WriteByte(0)
	sb.Write(enc)
	return Key{sum: sha256.Sum256([]byte(sb.String()))}
}
