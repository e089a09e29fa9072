package fleet

import (
	"container/list"
	"context"
	"hash/fnv"
	"sync"
)

// CacheCounters is a point-in-time snapshot of the suite cache's
// monotonic counters, surfaced through /statsz.
type CacheCounters struct {
	// Hits counts Gets served from a verified entry.
	Hits int64 `json:"cache_hits"`
	// Misses counts Gets that found nothing servable (absent, stale
	// epoch, or checksum failure).
	Misses int64 `json:"cache_misses"`
	// Evictions counts entries removed by the byte-cap LRU policy.
	Evictions int64 `json:"cache_evictions"`
	// Corruptions counts entries dropped because their stored checksum
	// no longer matched the payload (a torn or corrupted entry that
	// was detected and recomputed instead of served).
	Corruptions int64 `json:"cache_corruptions"`
	// StaleEpoch counts entries dropped because they predate the
	// current epoch.
	StaleEpoch int64 `json:"cache_stale_epoch"`
	// Collapsed counts requests that waited on another request's
	// in-flight computation of the same key instead of solving
	// themselves (singleflight followers).
	Collapsed int64 `json:"cache_collapsed"`
	// DiskHits counts Gets that missed the memory LRU but were served
	// (and re-promoted) from the attached durable tier — the warm-
	// restart path.
	DiskHits int64 `json:"cache_disk_hits"`
	// CorruptDrops counts corrupt entries actually dropped on the Get
	// path, either tier (each such Get recomputed instead of serving
	// bad bytes). The memory-tier share equals Corruptions; the service
	// layer folds in the durable tier's drops, so silent corruption is
	// observable in one place.
	CorruptDrops int64 `json:"cache_corrupt_drops"`
	// Bytes is the current resident payload size; Entries the current
	// entry count. Both are gauges, not monotonic.
	Bytes   int64 `json:"cache_bytes"`
	Entries int64 `json:"cache_entries"`
	// Epoch is the current invalidation epoch.
	Epoch int64 `json:"cache_epoch"`
}

// SuiteCache is the process-wide, concurrency-safe, content-addressed
// response cache: canonical Key → marshaled complete-suite body. It is the
// promotion of the per-Generate component-cache pattern (PR 4) to a
// cross-request tier, with the properties a long-lived shared cache
// needs and a per-request one does not:
//
//   - LRU + byte-cap eviction: resident payload bytes never exceed the
//     configured cap (internal/limits governance); the least recently
//     used entries are evicted first.
//   - Checksummed entries: every payload is stored with its FNV-64a
//     digest and re-verified on every Get. A torn or corrupted entry —
//     however it got that way — is detected, dropped and recomputed,
//     never served. This is the crash-safety contract: the cache can
//     lose entries at any moment without ever lying.
//   - Epoch invalidation: BumpEpoch atomically retires every current
//     entry (POST /admin/epoch in the daemon). Entries are also
//     stamped with their creation epoch and lazily re-checked on Get,
//     so an entry written by a solve that straddled the bump can never
//     be served into the new epoch.
//   - Singleflight: Do collapses concurrent identical requests onto
//     one computation; followers wait for the leader's bytes instead
//     of re-solving. A failed or cancelled leader never poisons the
//     cache — each follower then retries for leadership itself.
type SuiteCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	epoch    int64
	ll       *list.List // front = most recently used
	entries  map[string]*list.Element
	flight   map[string]*flightCall
	durable  DurableTier // nil = memory-only

	hits, misses, evictions, corruptions, staleEpoch, collapsed int64
	diskHits, corruptDrops                                      int64
}

// DurableTier is the optional disk tier under the memory LRU: a
// crash-recoverable store of the same bodies, keyed by the content
// key's string form. fleet deliberately sees only this interface —
// *durable.Store implements it and internal/service attaches the store
// as is — so the cache layer carries no disk dependency.
// Implementations must be safe for concurrent use and must verify body
// integrity on Get (a corrupt record is a miss, never bad bytes).
type DurableTier interface {
	// Get returns the body stored under key, or ok=false.
	Get(key string) (body []byte, ok bool)
	// Put stores body under key at the tier's current epoch.
	Put(key string, body []byte)
	// Epoch returns the tier's persisted invalidation epoch.
	Epoch() int64
	// SetEpoch adopts a new epoch, invalidating older records, and
	// persists it before returning. An error means the epoch holds in
	// this process but was not persisted.
	SetEpoch(epoch int64) error
}

// Tier names where a cache read was served from, for the response's
// served_from marker.
type Tier string

const (
	// TierNone: not served from cache (fresh solve, or a singleflight
	// follower sharing a leader's fresh solve).
	TierNone Tier = ""
	// TierMemory: served from the in-memory LRU.
	TierMemory Tier = "memory"
	// TierDisk: missed memory, served from the durable tier (and
	// promoted back into memory) — the post-restart warm hit.
	TierDisk Tier = "disk"
)

// AttachDurable wires a disk tier under a fresh cache and adopts the
// tier's persisted epoch, so a bump made before a restart keeps
// invalidating after it. Call once, before the cache serves requests
// or bumps its epoch.
func (c *SuiteCache) AttachDurable(t DurableTier) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.durable = t
	c.epoch = max(c.epoch, t.Epoch())
}

type cacheEntry struct {
	key     string
	payload []byte
	sum     uint64
	epoch   int64
}

type flightCall struct {
	done    chan struct{}
	payload []byte // valid only when err == nil after done closes
	err     error
}

// NewSuiteCache builds a cache holding at most maxBytes of payload
// (0 = unbounded; negative = a cache that stores nothing, useful for
// ablation).
func NewSuiteCache(maxBytes int64) *SuiteCache {
	return &SuiteCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		entries:  make(map[string]*list.Element),
		flight:   make(map[string]*flightCall),
	}
}

func checksum(p []byte) uint64 {
	h := fnv.New64a()
	h.Write(p)
	return h.Sum64()
}

// Get returns a copy of the body cached under k and the tier that
// served it, verifying epoch and checksum first. A stale or corrupt
// entry is dropped and reported as a miss, so callers recompute
// instead of serving bad bytes. Memory is read first, then the durable
// tier (when attached), with a disk hit promoted back into the memory
// LRU so the next Get is a memory hit. The durable read happens outside
// the cache lock — disk latency never blocks concurrent memory hits.
func (c *SuiteCache) Get(k Key) ([]byte, Tier, bool) {
	key := k.String()
	c.mu.Lock()
	if p, ok := c.memGetLocked(key); ok {
		c.mu.Unlock()
		return p, TierMemory, true
	}
	d := c.durable
	c.mu.Unlock()
	if d == nil {
		return nil, TierNone, false
	}
	payload, ok := d.Get(key)
	if !ok {
		return nil, TierNone, false
	}
	c.mu.Lock()
	c.diskHits++
	c.storeLocked(key, payload)
	c.mu.Unlock()
	return payload, TierDisk, true
}

// memGetLocked is the memory-tier read; callers hold c.mu. The
// returned slice is a copy.
func (c *SuiteCache) memGetLocked(key string) ([]byte, bool) {
	el, ok := c.entries[key]
	if !ok {
		c.misses++
		return nil, false
	}
	e := el.Value.(*cacheEntry)
	if e.epoch != c.epoch {
		c.staleEpoch++
		c.removeLocked(el)
		c.misses++
		return nil, false
	}
	if checksum(e.payload) != e.sum {
		c.corruptions++
		c.corruptDrops++
		c.removeLocked(el)
		c.misses++
		return nil, false
	}
	c.ll.MoveToFront(el)
	c.hits++
	out := make([]byte, len(e.payload))
	copy(out, e.payload)
	return out, true
}

// Put stores payload under k at the current epoch, evicting LRU
// entries until the byte cap holds, and writes through to the durable
// tier when one is attached (the disk write happens outside the cache
// lock). Payloads larger than the cap are still written through — the
// disk tier has its own, larger ceiling. The payload is copied; callers
// keep ownership of theirs.
func (c *SuiteCache) Put(k Key, payload []byte) {
	key := k.String()
	c.mu.Lock()
	c.storeLocked(key, payload)
	d := c.durable
	c.mu.Unlock()
	if d != nil {
		d.Put(key, payload)
	}
}

// storeLocked inserts payload into the memory LRU; callers hold c.mu.
func (c *SuiteCache) storeLocked(key string, payload []byte) {
	if c.maxBytes < 0 || (c.maxBytes > 0 && int64(len(payload)) > c.maxBytes) {
		return
	}
	if el, ok := c.entries[key]; ok {
		c.removeLocked(el)
	}
	for c.maxBytes > 0 && c.bytes+int64(len(payload)) > c.maxBytes {
		last := c.ll.Back()
		if last == nil {
			break
		}
		c.evictions++
		c.removeLocked(last)
	}
	stored := make([]byte, len(payload))
	copy(stored, payload)
	e := &cacheEntry{key: key, payload: stored, sum: checksum(stored), epoch: c.epoch}
	c.entries[key] = c.ll.PushFront(e)
	c.bytes += int64(len(stored))
}

// removeLocked drops el from the LRU and the index; callers hold c.mu.
func (c *SuiteCache) removeLocked(el *list.Element) {
	e := el.Value.(*cacheEntry)
	c.ll.Remove(el)
	delete(c.entries, e.key)
	c.bytes -= int64(len(e.payload))
}

// BumpEpoch advances the invalidation epoch and drops every resident
// entry, returning the new epoch. Entries written by computations that
// straddle the bump are additionally rejected lazily on Get by their
// epoch stamp. With a durable tier attached the bump is persisted
// before BumpEpoch returns, so a bump acknowledged without error
// survives any crash; a persistence error is returned, and the new
// epoch still holds in both tiers of this process.
func (c *SuiteCache) BumpEpoch() (int64, error) {
	c.mu.Lock()
	c.epoch++
	e := c.epoch
	c.ll.Init()
	c.entries = make(map[string]*list.Element)
	c.bytes = 0
	d := c.durable
	c.mu.Unlock()
	if d == nil {
		return e, nil
	}
	return e, d.SetEpoch(e)
}

// Epoch returns the current invalidation epoch.
func (c *SuiteCache) Epoch() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// Do returns the bytes for k and the tier that served them (TierMemory
// or TierDisk for cache hits, TierNone for a fresh computation or a
// singleflight follower), collapsing concurrent identical requests
// onto one computation. The fast path is a verified cache hit. On a
// miss, exactly one caller (the leader) runs fn; every concurrent
// caller for the same key waits for the leader's result. fn returns
// (payload, cacheable, err): the payload is stored only when cacheable
// (complete 200 suites — partial or error responses must not be
// served to future requests) and shared with followers either way.
//
// Failure containment: a leader that returns an error (or whose
// context was cancelled) does not poison anyone — each follower wakes,
// re-checks the cache, and competes to become the next leader, so one
// cancelled client cannot fail another client's request. A follower
// whose own ctx expires while waiting returns ctx.Err.
//
// The epoch is re-read after fn returns: if BumpEpoch raced the
// computation, the result is still returned to callers (it was correct
// when computed) but not stored, preserving "never serve a stale-epoch
// entry".
func (c *SuiteCache) Do(ctx context.Context, k Key, fn func() (payload []byte, cacheable bool, err error)) ([]byte, Tier, error) {
	key := k.String()
	for {
		if p, tier, ok := c.Get(k); ok {
			return p, tier, nil
		}
		c.mu.Lock()
		if call, inFlight := c.flight[key]; inFlight {
			c.collapsed++
			c.mu.Unlock()
			select {
			case <-call.done:
			case <-ctx.Done():
				return nil, TierNone, ctx.Err()
			}
			if call.err == nil {
				out := make([]byte, len(call.payload))
				copy(out, call.payload)
				return out, TierNone, nil
			}
			// Leader failed: loop and compete for leadership. The
			// cache re-check on the next iteration picks up any entry
			// stored in the meantime.
			continue
		}
		call := &flightCall{done: make(chan struct{})}
		c.flight[key] = call
		epochAtStart := c.epoch
		c.mu.Unlock()

		payload, cacheable, err := fn()
		call.payload, call.err = payload, err

		c.mu.Lock()
		delete(c.flight, key)
		sameEpoch := c.epoch == epochAtStart
		c.mu.Unlock()
		close(call.done)

		if err != nil {
			return nil, TierNone, err
		}
		if cacheable && sameEpoch {
			c.Put(k, payload)
		}
		return payload, TierNone, nil
	}
}

// Counters snapshots the cache counters.
func (c *SuiteCache) Counters() CacheCounters {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheCounters{
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		Corruptions:  c.corruptions,
		StaleEpoch:   c.staleEpoch,
		Collapsed:    c.collapsed,
		DiskHits:     c.diskHits,
		CorruptDrops: c.corruptDrops,
		Bytes:        c.bytes,
		Entries:      int64(c.ll.Len()),
		Epoch:        c.epoch,
	}
}

// corruptEntry flips a byte of k's stored payload without updating the
// checksum. Test hook (cache_test.go) for the torn-entry detection
// path; returns false when k is not resident.
func (c *SuiteCache) corruptEntry(k Key) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[k.String()]
	if !ok {
		return false
	}
	e := el.Value.(*cacheEntry)
	if len(e.payload) == 0 {
		return false
	}
	e.payload[len(e.payload)/2] ^= 0xFF
	return true
}
