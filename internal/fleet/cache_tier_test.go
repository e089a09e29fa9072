package fleet

import (
	"bytes"
	"context"
	"sync"
	"testing"
)

// fakeTier is an in-memory DurableTier for exercising the cache's
// tiering logic without disk.
type fakeTier struct {
	mu    sync.Mutex
	m     map[string][]byte
	epoch int64
	gets  int
	puts  int
}

func newFakeTier() *fakeTier { return &fakeTier{m: make(map[string][]byte)} }

func (f *fakeTier) Get(key string) ([]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.gets++
	p, ok := f.m[key]
	if !ok {
		return nil, false
	}
	out := make([]byte, len(p))
	copy(out, p)
	return out, true
}

func (f *fakeTier) Put(key string, payload []byte) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.puts++
	stored := make([]byte, len(payload))
	copy(stored, payload)
	f.m[key] = stored
}

func (f *fakeTier) Epoch() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.epoch
}

func (f *fakeTier) SetEpoch(e int64) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if e <= f.epoch {
		return nil
	}
	f.epoch = e
	f.m = make(map[string][]byte) // mimic invalidation
	return nil
}

// TestCacheTierWriteThroughAndPromotion: Put writes through to the
// durable tier; a memory miss is served from disk, marked TierDisk, and
// promoted so the next Get is a memory hit.
func TestCacheTierWriteThroughAndPromotion(t *testing.T) {
	c := NewSuiteCache(0)
	d := newFakeTier()
	c.AttachDurable(d)
	k := testKey("k")
	payload := []byte("suite bytes")

	c.Put(k, payload)
	if d.puts != 1 {
		t.Fatalf("durable puts = %d, want write-through", d.puts)
	}
	if p, tier, ok := c.Get(k); !ok || tier != TierMemory || !bytes.Equal(p, payload) {
		t.Fatalf("warm Get = (%q, %q, %v)", p, tier, ok)
	}

	// Simulate a restart losing the memory tier: a fresh cache over the
	// same durable tier serves from disk, then from memory.
	c2 := NewSuiteCache(0)
	c2.AttachDurable(d)
	p, tier, ok := c2.Get(k)
	if !ok || tier != TierDisk || !bytes.Equal(p, payload) {
		t.Fatalf("post-restart Get = (%q, %q, %v), want disk hit", p, tier, ok)
	}
	if p, tier, ok := c2.Get(k); !ok || tier != TierMemory || !bytes.Equal(p, payload) {
		t.Fatalf("promoted Get = (%q, %q, %v), want memory hit", p, tier, ok)
	}
	ctr := c2.Counters()
	if ctr.DiskHits != 1 || ctr.Hits != 1 {
		t.Fatalf("counters = %+v, want 1 disk hit + 1 memory hit", ctr)
	}
}

// TestCacheTierEpochReconciliation: AttachDurable adopts a persisted
// epoch that is ahead, and BumpEpoch writes the new epoch through.
func TestCacheTierEpochReconciliation(t *testing.T) {
	d := newFakeTier()
	d.epoch = 7 // persisted by a previous process
	c := NewSuiteCache(0)
	c.AttachDurable(d)
	if got := c.Epoch(); got != 7 {
		t.Fatalf("cache epoch = %d, want the persisted 7", got)
	}
	if got, err := c.BumpEpoch(); got != 8 || err != nil {
		t.Fatalf("BumpEpoch = (%d, %v), want (8, nil)", got, err)
	}
	if d.Epoch() != 8 {
		t.Fatalf("durable epoch = %d, want the bump written through", d.Epoch())
	}
}

// TestCacheTierDoServesDiskAndReportsTier: Do prefers the durable
// tier over recomputing, and reports TierNone for a fresh solve.
func TestCacheTierDoServesDiskAndReportsTier(t *testing.T) {
	d := newFakeTier()
	k := testKey("k")
	d.Put(k.String(), []byte("from disk"))
	d.puts = 0
	c := NewSuiteCache(0)
	c.AttachDurable(d)

	solves := 0
	fn := func() ([]byte, bool, error) {
		solves++
		return []byte("fresh"), true, nil
	}
	p, tier, err := c.Do(context.Background(), k, fn)
	if err != nil || tier != TierDisk || string(p) != "from disk" || solves != 0 {
		t.Fatalf("Do = (%q, %q, %v), solves=%d; want disk hit, no solve", p, tier, err, solves)
	}

	p, tier, err = c.Do(context.Background(), testKey("other"), fn)
	if err != nil || tier != TierNone || string(p) != "fresh" || solves != 1 {
		t.Fatalf("Do(miss) = (%q, %q, %v), solves=%d; want fresh solve", p, tier, err, solves)
	}
	if d.puts != 1 {
		t.Fatal("fresh cacheable solve not written through")
	}
}

// TestCacheTierMemoryOnlyUnchanged: without a tier, Get degrades to
// the plain memory behavior.
func TestCacheTierMemoryOnlyUnchanged(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	if _, tier, ok := c.Get(k); ok || tier != TierNone {
		t.Fatal("miss must be (TierNone, false)")
	}
	c.Put(k, []byte("v"))
	if _, tier, ok := c.Get(k); !ok || tier != TierMemory {
		t.Fatalf("hit tier = %q, want memory", tier)
	}
}

// TestCacheCorruptDropsCounted: the satellite fix — a corrupt-entry
// drop on the Get path is counted in cache_corrupt_drops, not just
// silently recomputed.
func TestCacheCorruptDropsCounted(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	c.Put(k, []byte("authoritative bytes"))
	if !c.corruptEntry(k) {
		t.Fatal("corruptEntry found no entry")
	}
	if _, _, ok := c.Get(k); ok {
		t.Fatal("corrupt entry served")
	}
	ctr := c.Counters()
	if ctr.CorruptDrops != 1 {
		t.Fatalf("CorruptDrops = %d, want 1", ctr.CorruptDrops)
	}
}
