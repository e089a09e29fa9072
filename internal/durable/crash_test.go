package durable

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/testutil"
)

// TestCrashRecoveryMidSegmentWrite is the ISSUE's acceptance scenario
// at the store level: a daemon killed -9 in the middle of appending a
// record leaves a torn tail; restart must recover every acknowledged
// record byte-identical, drop the torn tail, preserve the epoch, and
// quarantine a deliberately bit-flipped record — all without failing
// startup. The kill -9 is simulated exactly: the store is abandoned
// without Close (crash-only: Close does nothing recovery relies on) and
// the partial append is written through a second, independent fd, which
// is indistinguishable on disk from the process dying mid-write().
func TestCrashRecoveryMidSegmentWrite(t *testing.T) {
	before := testutil.GoroutineSnapshot()
	dir := t.TempDir()

	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	want := map[string][]byte{}
	for i := 0; i < 10; i++ {
		k := fmt.Sprintf("goal-%d", i)
		b := bytes.Repeat([]byte{byte('a' + i)}, 64+i*7)
		want[k] = b
		s.Put(k, b)
	}
	if err := s.SetEpoch(3); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	// Pre-bump records are now stale; the surviving set is written at
	// epoch 3.
	for k, b := range want {
		s.Put(k, b)
	}
	activeID, activeSize := s.activeID, s.activeSize

	// The crash: no Close, no flush. Append half a record to the active
	// segment through an independent fd — the torn tail a mid-write
	// SIGKILL leaves.
	torn := encodeRecord("torn-key", 3, bytes.Repeat([]byte("t"), 500))
	f, err := os.OpenFile(segPath(dir, activeID), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(torn[:len(torn)/2]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Bit-flip one committed record's body so recovery meets real
	// corruption, not just truncation.
	flipKey := "goal-4"
	loc := s.index[flipKey]
	flipByteAt(t, segPath(dir, loc.seg), loc.off+loc.n-6) // inside body/CRC

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery failed startup: %v", err)
	}
	defer r.Close()

	if got := r.Epoch(); got != 3 {
		t.Fatalf("epoch after crash = %d, want 3", got)
	}
	for k, b := range want {
		if k == flipKey {
			if _, ok := r.Get(k); ok {
				t.Fatalf("bit-flipped record %s served after recovery", k)
			}
			continue
		}
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, b) {
			t.Fatalf("recovered Get(%s) = (%v, ok=%v), want byte-identical body", k, bytes.Equal(got, b), ok)
		}
	}
	if _, ok := r.Get("torn-key"); ok {
		t.Fatal("torn (unacknowledged) record served after recovery")
	}

	c := r.Counters()
	if c.TornTailsDropped != 1 {
		t.Fatalf("TornTailsDropped = %d, want 1", c.TornTailsDropped)
	}
	if c.Quarantined == 0 {
		t.Fatal("bit-flipped record not quarantined")
	}
	if c.StaleDropped == 0 {
		t.Fatal("pre-bump records not dropped as stale")
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("quarantine/ empty after recovery (err %v)", err)
	}
	// The truncated segment must end exactly where the torn tail began.
	st, err := os.Stat(segPath(dir, activeID))
	if err != nil {
		t.Fatal(err)
	}
	if st.Size() != activeSize {
		t.Fatalf("active segment %d bytes after recovery, want %d (torn tail truncated)", st.Size(), activeSize)
	}

	// Crash again immediately after recovery (no new writes): a second
	// restart must see a clean store — recovery is idempotent.
	r2, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("second recovery: %v", err)
	}
	if c2 := r2.Counters(); c2.TornTailsDropped != 0 {
		t.Fatalf("second recovery re-dropped a tail: %+v", c2)
	}
	r2.Close()
	s.Close()

	testutil.RequireNoGoroutineLeak(t, before, 0)
}

// TestCrashRecoveryTornWAL crashes mid-journal-append: the WAL's torn
// tail is truncated and the last acknowledged epoch survives.
func TestCrashRecoveryTornWAL(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.SetEpoch(5); err != nil {
		t.Fatal(err)
	}
	// Torn epoch entry: half an encoded frame at the journal's end.
	entry := encodeEpochEntry(6)
	f, err := os.OpenFile(filepath.Join(dir, "journal.wal"), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Write(entry[:len(entry)-3]); err != nil {
		t.Fatal(err)
	}
	f.Close()

	r, err := Open(dir, Options{})
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	defer r.Close()
	if got := r.Epoch(); got != 5 {
		t.Fatalf("epoch = %d, want the last acknowledged 5 (torn bump dropped)", got)
	}
	s.Close()
}
