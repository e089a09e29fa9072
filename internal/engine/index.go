package engine

// index is an open-addressing hash table with linear probing: the
// SharedCache's per-dataset lookups (node evaluations, unified batches,
// whole-result verdicts). A Go map would do, except that clearing one
// reseeds its hash, so a map spread over several tables redistributes
// the same keys differently on the next dataset and can split a table
// the last run left nearly full: an allocation in a warm run. An index's
// layout depends only on the keys it holds and the order they came in,
// so it grows only when a run holds more keys than any run before it.
// Reset is O(1): a slot is live only while its stamp equals the current
// generation.
type index[K indexKey, V any] struct {
	slots []indexSlot[K, V]
	gen   uint32 // stamp of live slots; never 0 once slots exist
	n     int    // live entries
}

type indexSlot[K indexKey, V any] struct {
	gen uint32
	key K
	val V
}

// indexKey is a key with its own hash.
type indexKey interface {
	comparable
	hash() uint64
}

// newIndex returns an index with room for n entries before it grows.
func newIndex[K indexKey, V any](n int) index[K, V] {
	size := 64
	for size < 2*n {
		size *= 2
	}
	return index[K, V]{slots: make([]indexSlot[K, V], size), gen: 1}
}

func (t *index[K, V]) get(k K) (V, bool) {
	if mask := len(t.slots) - 1; mask > 0 {
		for i := int(k.hash()) & mask; t.slots[i].gen == t.gen; i = (i + 1) & mask {
			if t.slots[i].key == k {
				return t.slots[i].val, true
			}
		}
	}
	var zero V
	return zero, false
}

// put sets k's value, doubling the table first when the new entry would
// fill more than half of it.
func (t *index[K, V]) put(k K, v V) {
	if 2*(t.n+1) > len(t.slots) {
		t.grow()
	}
	mask := len(t.slots) - 1
	i := int(k.hash()) & mask
	for ; t.slots[i].gen == t.gen; i = (i + 1) & mask {
		if t.slots[i].key == k {
			t.slots[i].val = v
			return
		}
	}
	t.slots[i] = indexSlot[K, V]{gen: t.gen, key: k, val: v}
	t.n++
}

func (t *index[K, V]) grow() {
	old, live := t.slots, t.gen
	*t = index[K, V]{slots: make([]indexSlot[K, V], max(2*len(old), 64)), gen: 1}
	for _, s := range old {
		if s.gen == live {
			t.put(s.key, s.val)
		}
	}
}

// reset empties the index, keeping its slots.
func (t *index[K, V]) reset() {
	t.n = 0
	if t.gen++; t.gen == 0 {
		clear(t.slots)
		t.gen = 1
	}
}

// mix64 is MurmurHash3's 64-bit finalizer: every input bit affects
// every output bit, so the low bits an index probes with are well
// spread.
func mix64(h uint64) uint64 {
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	h *= 0xc4ceb9fe1a85ec53
	return h ^ h>>33
}

func (k nodeKey) hash() uint64 {
	return mix64((uint64(uint32(k.op))<<32 | uint64(uint32(k.l))) ^ mix64(uint64(uint32(k.r))))
}

func (k resKey) hash() uint64 { return mix64(uint64(uint32(k.proj))<<32 | uint64(uint32(k.root))) }

// contentKey is a batch content hash (see batch.contentHash).
type contentKey uint64

func (k contentKey) hash() uint64 { return mix64(uint64(k)) }
