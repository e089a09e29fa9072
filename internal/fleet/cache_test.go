package fleet

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestCacheHitMissLRU: basic hit/miss behavior plus LRU byte-cap
// eviction order (least recently used goes first; a Get refreshes
// recency).
func TestCacheHitMissLRU(t *testing.T) {
	c := NewSuiteCache(30) // three 10-byte entries fit
	p := func(i int) []byte { return []byte(fmt.Sprintf("payload-%02d", i)) }
	k := func(i int) Key { return testKey(fmt.Sprintf("k%d", i)) }
	for i := 0; i < 3; i++ {
		c.Put(k(i), p(i))
	}
	if got, _, ok := c.Get(k(0)); !ok || string(got) != string(p(0)) {
		t.Fatalf("k0: %q %v", got, ok)
	}
	// k0 was just used; inserting k3 must evict k1 (now the LRU).
	c.Put(k(3), p(3))
	if _, _, ok := c.Get(k(1)); ok {
		t.Fatal("k1 must have been evicted as LRU")
	}
	for _, i := range []int{0, 2, 3} {
		if _, _, ok := c.Get(k(i)); !ok {
			t.Fatalf("k%d must survive", i)
		}
	}
	ctr := c.Counters()
	if ctr.Evictions != 1 || ctr.Bytes != 30 || ctr.Entries != 3 {
		t.Fatalf("counters %+v", ctr)
	}
	// An entry larger than the whole cap is not stored.
	c.Put(testKey("huge"), make([]byte, 31))
	if _, _, ok := c.Get(testKey("huge")); ok {
		t.Fatal("over-cap payload must not be cached")
	}
}

// TestCacheChecksumDetectsCorruption: a torn or corrupted entry is
// detected on Get, dropped, and reported as a miss — never served.
func TestCacheChecksumDetectsCorruption(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	c.Put(k, []byte("authoritative bytes"))
	if !c.corruptEntry(k) {
		t.Fatal("corruptEntry found no entry")
	}
	if got, _, ok := c.Get(k); ok {
		t.Fatalf("corrupt entry served: %q", got)
	}
	ctr := c.Counters()
	if ctr.Corruptions != 1 || ctr.Entries != 0 {
		t.Fatalf("counters %+v, want 1 corruption and the entry dropped", ctr)
	}
	// The slot is free for a clean recompute.
	c.Put(k, []byte("recomputed"))
	if got, _, ok := c.Get(k); !ok || string(got) != "recomputed" {
		t.Fatalf("recomputed entry: %q %v", got, ok)
	}
}

// TestCacheEpochInvalidation: bumping the epoch retires every entry,
// and an entry written by a computation that straddled the bump is
// lazily rejected by its epoch stamp.
func TestCacheEpochInvalidation(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	c.Put(k, []byte("epoch-0"))
	if e, err := c.BumpEpoch(); e != 1 || err != nil {
		t.Fatalf("BumpEpoch = (%d, %v), want (1, nil)", e, err)
	}
	if _, _, ok := c.Get(k); ok {
		t.Fatal("pre-bump entry served after epoch bump")
	}
	// Simulate a torn write racing the bump: force an entry carrying a
	// stale epoch stamp into the map, then verify Get rejects it.
	c.Put(k, []byte("epoch-1"))
	c.mu.Lock()
	c.entries[k.String()].Value.(*cacheEntry).epoch = 0
	c.mu.Unlock()
	if _, _, ok := c.Get(k); ok {
		t.Fatal("stale-epoch entry served")
	}
	if ctr := c.Counters(); ctr.StaleEpoch < 1 {
		t.Fatalf("counters %+v, want stale-epoch drops recorded", ctr)
	}
}

// TestCacheSingleflightCollapse: N concurrent requests for one key run
// the computation exactly once; everyone gets the same bytes.
func TestCacheSingleflightCollapse(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	var calls atomic.Int64
	gate := make(chan struct{})
	const n = 16
	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			results[i], _, errs[i] = c.Do(context.Background(), k, func() ([]byte, error) {
				calls.Add(1)
				<-gate // hold every follower in the wait path
				return []byte("answer"), nil
			})
		}(i)
	}
	// Give followers time to pile onto the in-flight call, then open.
	time.Sleep(50 * time.Millisecond)
	close(gate)
	wg.Wait()
	if got := calls.Load(); got != 1 {
		t.Fatalf("computation ran %d times, want 1", got)
	}
	for i := 0; i < n; i++ {
		if errs[i] != nil || string(results[i]) != "answer" {
			t.Fatalf("caller %d: %q %v", i, results[i], errs[i])
		}
	}
	ctr := c.Counters()
	if ctr.Collapsed == 0 {
		t.Fatalf("counters %+v, want collapsed followers recorded", ctr)
	}
	if _, _, ok := c.Get(k); !ok {
		t.Fatal("successful leader result must be cached")
	}
}

// TestCacheSingleflightLeaderFailure: a failing leader does not poison
// followers — one of them retries the computation and succeeds.
func TestCacheSingleflightLeaderFailure(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	var calls atomic.Int64
	boom := errors.New("boom")
	leaderStarted := make(chan struct{})
	leaderFail := make(chan struct{})

	var wg sync.WaitGroup
	var leaderErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		_, _, leaderErr = c.Do(context.Background(), k, func() ([]byte, error) {
			calls.Add(1)
			close(leaderStarted)
			<-leaderFail
			return nil, boom
		})
	}()
	<-leaderStarted
	var followerGot []byte
	var followerErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		followerGot, _, followerErr = c.Do(context.Background(), k, func() ([]byte, error) {
			calls.Add(1)
			return []byte("second try"), nil
		})
	}()
	time.Sleep(20 * time.Millisecond) // let the follower reach the wait
	close(leaderFail)
	wg.Wait()
	if !errors.Is(leaderErr, boom) {
		t.Fatalf("leader error %v, want boom", leaderErr)
	}
	if followerErr != nil || string(followerGot) != "second try" {
		t.Fatalf("follower after leader failure: %q %v", followerGot, followerErr)
	}
	if calls.Load() != 2 {
		t.Fatalf("calls %d, want leader + follower retry", calls.Load())
	}
}

// TestCacheDoFollowerCtxCancel: a follower whose own context dies
// while waiting gets its ctx error promptly, not the leader's fate.
func TestCacheDoFollowerCtxCancel(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	started := make(chan struct{})
	release := make(chan struct{})
	defer close(release)
	go c.Do(context.Background(), k, func() ([]byte, error) {
		close(started)
		<-release
		return []byte("late"), nil
	})
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	_, _, err := c.Do(ctx, k, func() ([]byte, error) {
		t.Error("follower must not compute while the leader is in flight")
		return nil, nil
	})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("follower got %v, want its own deadline", err)
	}
}

// partialBody carries a result that must not be served to another
// request (a partial suite, an error body) out of Do as an error.
type partialBody struct{ payload []byte }

func (e *partialBody) Error() string { return "partial" }

// TestCacheUncacheableNotStored: a result fn returns as an error
// (partial suites, error bodies) reaches its own caller through the
// error but is never stored, so the next caller for the key computes
// afresh.
func TestCacheUncacheableNotStored(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	_, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
		return nil, &partialBody{payload: []byte("partial")}
	})
	var pb *partialBody
	if !errors.As(err, &pb) || string(pb.payload) != "partial" {
		t.Fatalf("Do: %v, want the partial body carried in the error", err)
	}
	if _, _, ok := c.Get(k); ok {
		t.Fatal("non-cacheable result must not be stored")
	}
	calls := 0
	got, tier, err := c.Do(context.Background(), k, func() ([]byte, error) {
		calls++
		return []byte("complete"), nil
	})
	if err != nil || string(got) != "complete" || tier != TierNone || calls != 1 {
		t.Fatalf("second Do: %q tier=%v calls=%d %v, want a fresh computation", got, tier, calls, err)
	}
}

// TestCacheEpochRaceNotStored: a result computed before an epoch bump
// lands is returned to its caller but not stored into the new epoch.
func TestCacheEpochRaceNotStored(t *testing.T) {
	c := NewSuiteCache(0)
	k := testKey("k")
	computing := make(chan struct{})
	finish := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		got, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
			close(computing)
			<-finish
			return []byte("old-epoch"), nil
		})
		if err != nil || string(got) != "old-epoch" {
			t.Errorf("Do: %q %v", got, err)
		}
	}()
	<-computing
	c.BumpEpoch()
	close(finish)
	<-done
	if _, _, ok := c.Get(k); ok {
		t.Fatal("result computed under the old epoch must not be served in the new one")
	}
}

// TestCacheDisabled: a negative byte cap stores nothing but Do still
// computes and returns.
func TestCacheDisabled(t *testing.T) {
	c := NewSuiteCache(-1)
	k := testKey("k")
	var calls atomic.Int64
	for i := 0; i < 2; i++ {
		got, _, err := c.Do(context.Background(), k, func() ([]byte, error) {
			calls.Add(1)
			return []byte("x"), nil
		})
		if err != nil || string(got) != "x" {
			t.Fatalf("Do: %q %v", got, err)
		}
	}
	if calls.Load() != 2 {
		t.Fatalf("disabled cache must recompute every time: %d calls", calls.Load())
	}
}
