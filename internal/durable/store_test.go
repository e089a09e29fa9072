package durable

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

func openT(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestStorePutGetRoundTrip(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	body := []byte("hello durable world")
	s.Put("k1", body)
	got, ok := s.Get("k1")
	if !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = (%q, %v), want (%q, true)", got, ok, body)
	}
	if _, ok := s.Get("absent"); ok {
		t.Fatal("Get(absent) reported a hit")
	}
	c := s.Counters()
	if c.Hits != 1 || c.Misses != 1 || c.Puts != 1 {
		t.Fatalf("counters = %+v, want 1 hit, 1 miss, 1 put", c)
	}
}

func TestStoreRestartRecoversRecords(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	want := map[string][]byte{}
	for i := 0; i < 20; i++ {
		k := fmt.Sprintf("key-%02d", i)
		b := bytes.Repeat([]byte{byte(i)}, 100+i)
		want[k] = b
		s.Put(k, b)
	}
	s.Put("key-05", []byte("rewritten")) // later record wins
	want["key-05"] = []byte("rewritten")
	s.Close()

	r := openT(t, dir, Options{})
	for k, b := range want {
		got, ok := r.Get(k)
		if !ok || !bytes.Equal(got, b) {
			t.Fatalf("after restart Get(%s) = (%q, %v), want byte-identical body", k, got, ok)
		}
	}
	c := r.Counters()
	if c.RecoveredRecords != 20 {
		t.Fatalf("RecoveredRecords = %d, want 20", c.RecoveredRecords)
	}
	if c.TornTailsDropped != 0 || c.Quarantined != 0 {
		t.Fatalf("clean restart reported damage: %+v", c)
	}
}

func TestStoreEpochPersistsAndInvalidates(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put("old", []byte("old-body"))
	if err := s.SetEpoch(7); err != nil {
		t.Fatalf("SetEpoch: %v", err)
	}
	if _, ok := s.Get("old"); ok {
		t.Fatal("pre-bump record served after epoch bump")
	}
	s.Put("new", []byte("new-body"))
	s.Close()

	r := openT(t, dir, Options{})
	if got := r.Epoch(); got != 7 {
		t.Fatalf("Epoch after restart = %d, want 7", got)
	}
	if _, ok := r.Get("old"); ok {
		t.Fatal("stale on-disk record served after restart")
	}
	if body, ok := r.Get("new"); !ok || !bytes.Equal(body, []byte("new-body")) {
		t.Fatalf("current-epoch record lost: (%q, %v)", body, ok)
	}
	if c := r.Counters(); c.StaleDropped == 0 {
		t.Fatalf("StaleDropped = 0, want stale record counted: %+v", c)
	}
}

func TestStoreSegmentRotationAndEviction(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments, cap at ~3 of them.
	s := openT(t, dir, Options{SegmentBytes: 1 << 10, MaxBytes: 3 << 10})
	body := bytes.Repeat([]byte("v"), 300)
	for i := 0; i < 20; i++ {
		s.Put(fmt.Sprintf("k%02d", i), body)
	}
	c := s.Counters()
	if c.SegmentsEvicted == 0 {
		t.Fatalf("no segments evicted under byte cap: %+v", c)
	}
	if c.DiskBytes > 3<<10 {
		t.Fatalf("DiskBytes %d exceeds cap", c.DiskBytes)
	}
	// Newest keys survive, oldest evicted.
	if _, ok := s.Get("k19"); !ok {
		t.Fatal("newest key evicted")
	}
	if _, ok := s.Get("k00"); ok {
		t.Fatal("oldest key survived a cap that must have evicted it")
	}
	s.Close()
	r := openT(t, dir, Options{SegmentBytes: 1 << 10, MaxBytes: 3 << 10})
	if got, ok := r.Get("k19"); !ok || !bytes.Equal(got, body) {
		t.Fatal("recovery lost the newest record after eviction churn")
	}
}

func TestStoreDisabledStoresNothing(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxBytes: -1})
	s.Put("k", []byte("v"))
	if _, ok := s.Get("k"); ok {
		t.Fatal("negative-cap store served a record")
	}
	if c := s.Counters(); c.PutSkipped != 1 || c.Puts != 0 {
		t.Fatalf("counters = %+v, want the put skipped", c)
	}
}

func TestStoreOversizedRecordSkipped(t *testing.T) {
	s := openT(t, t.TempDir(), Options{MaxRecordBytes: 64})
	s.Put("k", bytes.Repeat([]byte("x"), 1<<10))
	if _, ok := s.Get("k"); ok {
		t.Fatal("oversized record stored")
	}
	if c := s.Counters(); c.PutSkipped != 1 {
		t.Fatalf("PutSkipped = %d, want 1", c.PutSkipped)
	}
}

func TestStoreGetCorruptionQuarantinesAndTombstones(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put("k", bytes.Repeat([]byte("b"), 256))
	// Flip a body byte behind the store's back.
	loc := s.index["k"]
	seg := segPath(dir, loc.seg)
	flipByteAt(t, seg, loc.off+20) // inside the record body
	if _, ok := s.Get("k"); ok {
		t.Fatal("bit-flipped record served")
	}
	c := s.Counters()
	if c.CorruptDrops != 1 || c.Quarantined != 1 {
		t.Fatalf("counters = %+v, want 1 corrupt drop + quarantine", c)
	}
	ents, err := os.ReadDir(filepath.Join(dir, "quarantine"))
	if err != nil || len(ents) == 0 {
		t.Fatalf("quarantine empty (err %v)", err)
	}
	// The tombstone persists: even though the on-disk CRC failure would
	// be re-detected, recovery must not resurrect the record.
	s.Close()
	r := openT(t, dir, Options{})
	if _, ok := r.Get("k"); ok {
		t.Fatal("corrupt record resurrected at recovery")
	}
}

// TestStoreDeleteTombstoneSurvivesRestart: the tombstone a corrupt read
// journals (the store's only delete) is applied at recovery even when
// the record checksums again, an unrelated key survives it, and a re-put
// after it wins.
func TestStoreDeleteTombstoneSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put("gone", bytes.Repeat([]byte("b"), 256))
	s.Put("kept", []byte("y"))
	loc := s.index["gone"]
	seg := segPath(dir, loc.seg)
	flipByteAt(t, seg, loc.off+20) // inside the record body
	if _, ok := s.Get("gone"); ok {
		t.Fatal("bit-flipped record served")
	}
	// Make the corruption transient: flip the byte back, so the record
	// checksums again. Only the journaled tombstone can now keep
	// recovery from resurrecting it.
	flipByteAt(t, seg, loc.off+20)
	s.Close()
	r := openT(t, dir, Options{})
	if _, ok := r.Get("gone"); ok {
		t.Fatal("tombstoned record resurrected at recovery")
	}
	if c := r.Counters(); c.Tombstoned != 1 {
		t.Fatalf("Tombstoned = %d, want the journaled tombstone applied", c.Tombstoned)
	}
	if _, ok := r.Get("kept"); !ok {
		t.Fatal("unrelated key lost")
	}
	// A re-put after the tombstone must win: tombstones name the record
	// instance, not the key.
	r.Put("gone", []byte("back"))
	r.Close()
	r2 := openT(t, dir, Options{})
	if body, ok := r2.Get("gone"); !ok || !bytes.Equal(body, []byte("back")) {
		t.Fatalf("re-put after tombstone lost at recovery: (%q, %v)", body, ok)
	}
}

// TestStoreSetEpochJournalFailure: a bump the journal cannot record is
// reported as an error, but the store still adopts it, so no record it
// retired is served by this process.
func TestStoreSetEpochJournalFailure(t *testing.T) {
	s := openT(t, t.TempDir(), Options{})
	s.Put("old", []byte("pre-bump"))
	s.wal.Close() // every journal write now fails
	if err := s.SetEpoch(1); err == nil {
		t.Fatal("SetEpoch with a failing journal reported success")
	}
	if got := s.Epoch(); got != 1 {
		t.Fatalf("Epoch = %d after the failed journal write, want 1 adopted in memory", got)
	}
	if body, ok := s.Get("old"); ok {
		t.Fatalf("pre-bump record served after the bump: %q", body)
	}
	s.Put("new", []byte("post-bump"))
	if body, ok := s.Get("new"); !ok || !bytes.Equal(body, []byte("post-bump")) {
		t.Fatalf("post-bump record = (%q, %v), want it served", body, ok)
	}
	if c := s.Counters(); c.IOErrors == 0 || c.StaleDropped != 1 {
		t.Fatalf("counters = %+v, want the journal failure and the dropped record counted", c)
	}
}

// TestStoreRecoversUnjournaledEpoch: a bump whose journal write failed
// survives a restart once a record carries it. Recovery adopts the
// record's epoch, drops the records the bump retired, serves the newer
// one and journals the adopted epoch, so a second restart keeps it.
func TestStoreRecoversUnjournaledEpoch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, Options{})
	if err != nil {
		t.Fatal(err)
	}
	s.Put("old", []byte("pre-bump"))
	s.wal.Close() // every journal write now fails
	if err := s.SetEpoch(1); err == nil {
		t.Fatal("SetEpoch with a failing journal reported success")
	}
	s.Put("new", []byte("post-bump"))
	s.Close()

	for restart := 1; restart <= 2; restart++ {
		r, err := Open(dir, Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := r.Epoch(); got != 1 {
			t.Errorf("restart %d: Epoch = %d, want 1 from the post-bump record", restart, got)
		}
		if body, ok := r.Get("old"); ok {
			t.Errorf("restart %d: retired record served: %q", restart, body)
		}
		if body, ok := r.Get("new"); !ok || !bytes.Equal(body, []byte("post-bump")) {
			t.Errorf("restart %d: post-bump record = (%q, %v), want it served", restart, body, ok)
		}
		r.Close()
		journal, err := os.ReadFile(filepath.Join(dir, "journal.wal"))
		if err != nil {
			t.Fatal(err)
		}
		if got := replayWALBytes(journal).Epoch; got != 1 {
			t.Errorf("restart %d: journaled epoch %d, want the adopted 1", restart, got)
		}
	}
}

// TestStoreServesParentFramedRecord: a record framed byte for byte as
// earlier binaries wrote it — status slot 200 — is served after Open,
// and encodeRecord still writes that exact frame.
func TestStoreServesParentFramedRecord(t *testing.T) {
	const key, epoch = "k", uint64(0)
	body := []byte(`{"complete":true}`)
	rec := binary.BigEndian.AppendUint16(nil, uint16(len(key)))
	rec = append(rec, key...)
	rec = binary.BigEndian.AppendUint16(rec, 200)
	rec = binary.BigEndian.AppendUint64(rec, epoch)
	rec = append(rec, body...)
	rec = binary.BigEndian.AppendUint32(rec, crc32.Checksum(rec, crc32.MakeTable(crc32.Castagnoli)))
	frame := binary.BigEndian.AppendUint32(nil, uint32(len(rec)))
	frame = append(frame, rec...)
	if enc := encodeRecord(key, epoch, body); !bytes.Equal(enc, frame) {
		t.Fatalf("encodeRecord = %x, want the earlier frame %x", enc, frame)
	}

	dir := t.TempDir()
	if err := os.MkdirAll(filepath.Join(dir, "segments"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath(dir, 1), append([]byte(segMagic), frame...), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openT(t, dir, Options{})
	if got, ok := s.Get(key); !ok || !bytes.Equal(got, body) {
		t.Fatalf("Get = (%q, %v), want the earlier record's body", got, ok)
	}
}

func TestOpenRejectsUnusableDir(t *testing.T) {
	dir := t.TempDir()
	file := filepath.Join(dir, "plainfile")
	if err := os.WriteFile(file, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	// A path under a regular file can never become a directory (ENOTDIR
	// regardless of privilege, so this holds even running as root).
	if _, err := Open(filepath.Join(file, "cache"), Options{}); err == nil {
		t.Fatal("Open under a regular file succeeded")
	}
}

func TestOpenQuarantinesForeignFiles(t *testing.T) {
	dir := t.TempDir()
	s := openT(t, dir, Options{})
	s.Put("k", []byte("v"))
	s.Close()
	// Drop a non-segment file where a segment should be.
	if err := os.WriteFile(segPath(dir, 99), []byte("NOTASEGM-garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	r := openT(t, dir, Options{})
	if _, ok := r.Get("k"); !ok {
		t.Fatal("good record lost to a foreign neighbor file")
	}
	if _, err := os.Stat(segPath(dir, 99)); !os.IsNotExist(err) {
		t.Fatalf("foreign file still in segments/: %v", err)
	}
	ents, _ := os.ReadDir(filepath.Join(dir, "quarantine"))
	if len(ents) == 0 {
		t.Fatal("foreign file not quarantined")
	}
}

// flipByteAt XORs one byte of the file at off.
func flipByteAt(t *testing.T, path string, off int64) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_RDWR, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0xff
	if _, err := f.WriteAt(b[:], off); err != nil {
		t.Fatal(err)
	}
}
