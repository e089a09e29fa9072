package durable

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
)

// Store is the disk-backed content-addressed record store: key →
// body, persisted across process death. All methods are safe
// for concurrent use. A Store never fails its caller on bad data —
// corrupt or torn records are quarantined and reported as misses — and
// only Open can return an error (and only for an unusable directory,
// which the daemon degrades on rather than refusing to start).
type Store struct {
	dir  string
	opts Options

	mu         sync.Mutex
	wal        *os.File
	active     *os.File
	activeID   int64
	activeSize int64
	segs       map[int64]*segInfo
	index      map[string]recLoc
	epoch      uint64
	totalBytes int64
	ctr        Counters
}

// segInfo tracks one on-disk segment.
type segInfo struct {
	path string
	size int64
	rd   *os.File // lazily opened read handle
}

// recLoc locates one live record.
type recLoc struct {
	seg   int64
	off   int64
	n     int64
	epoch uint64
}

func segPath(dir string, id int64) string {
	return filepath.Join(dir, "segments", fmt.Sprintf("seg-%08d.seg", id))
}

// Open opens (creating if needed) the store rooted at dir and runs
// crash recovery: WAL replay (persisted epoch, tombstones), segment
// scan (torn tails dropped, corrupt records quarantined), index
// rebuild. Recovery never fails on bad data; the returned error means
// the directory itself is unusable (cannot create, not a directory,
// unwritable), which callers degrade on.
func Open(dir string, opts Options) (*Store, error) {
	s := &Store{
		dir:   dir,
		opts:  opts.normalize(),
		segs:  make(map[int64]*segInfo),
		index: make(map[string]recLoc),
	}
	for _, d := range []string{dir, filepath.Join(dir, "segments"), filepath.Join(dir, "quarantine")} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("durable: create %s: %w", d, err)
		}
	}
	// Probe writability up front (MkdirAll on an existing dir checks
	// nothing): degrading to memory-only must happen at startup, not on
	// the first Put.
	probe := filepath.Join(dir, ".writable")
	if err := os.WriteFile(probe, []byte("ok"), 0o644); err != nil {
		return nil, fmt.Errorf("durable: %s not writable: %w", dir, err)
	}
	os.Remove(probe)

	replay, err := s.openWAL()
	if err != nil {
		return nil, err
	}
	s.epoch = replay.Epoch
	if err := s.recoverSegments(replay); err != nil {
		return nil, err
	}
	s.evictLocked()
	return s, nil
}

// openWAL replays the journal, truncates its torn tail, and leaves an
// fsync'd append handle open.
func (s *Store) openWAL() (walReplay, error) {
	path := filepath.Join(s.dir, "journal.wal")
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return walReplay{}, fmt.Errorf("durable: read journal: %w", err)
	}
	replay := replayWALBytes(data)
	if replay.BadMagic && len(data) > 0 {
		// Not our journal: preserve it for post-mortem, start fresh.
		s.quarantineBytes("journal", 0, data)
		data = nil
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return walReplay{}, fmt.Errorf("durable: open journal: %w", err)
	}
	if len(data) == 0 || replay.BadMagic {
		if err := f.Truncate(0); err == nil {
			_, err = f.Write([]byte(walMagic))
			if err == nil {
				err = f.Sync()
			}
		}
		if err != nil {
			f.Close()
			return walReplay{}, fmt.Errorf("durable: init journal: %w", err)
		}
		replay.ValidLen = int64(len(walMagic))
	} else if replay.ValidLen < int64(len(data)) {
		// Torn tail from a crash mid-append: truncate to the valid
		// prefix. The lost entry was never acknowledged.
		if err := f.Truncate(replay.ValidLen); err != nil {
			f.Close()
			return walReplay{}, fmt.Errorf("durable: truncate journal tail: %w", err)
		}
	}
	if _, err := f.Seek(0, 2); err != nil {
		f.Close()
		return walReplay{}, fmt.Errorf("durable: seek journal: %w", err)
	}
	s.wal = f
	return replay, nil
}

// recoverSegments scans every segment file in id order, quarantining
// corrupt records, truncating torn tails, and rebuilding the index
// (later records win; tombstoned and stale-epoch records are skipped).
func (s *Store) recoverSegments(replay walReplay) error {
	dir := filepath.Join(s.dir, "segments")
	names, err := os.ReadDir(dir)
	if err != nil {
		return fmt.Errorf("durable: list segments: %w", err)
	}
	var ids []int64
	for _, e := range names {
		name := e.Name()
		if !strings.HasPrefix(name, "seg-") || !strings.HasSuffix(name, ".seg") {
			continue
		}
		id, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimPrefix(name, "seg-"), ".seg"), 10, 64)
		if err != nil {
			continue
		}
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		path := segPath(s.dir, id)
		data, err := os.ReadFile(path)
		if err != nil {
			s.ctr.IOErrors++
			continue
		}
		scan := scanSegmentBytes(data, s.opts.MaxRecordBytes)
		if scan.BadMagic {
			// Not a segment at all: move it out of the way whole.
			s.quarantineBytes(fmt.Sprintf("seg%08d", id), 0, data)
			os.Remove(path)
			continue
		}
		for _, c := range scan.Corrupt {
			s.ctr.Quarantined++
			s.quarantineBytes(fmt.Sprintf("seg%08d", id), c.Off, data[c.Off:c.Off+c.Len])
		}
		size := int64(len(data))
		if scan.TornAt >= 0 {
			// The partial record a mid-write crash leaves: drop it. The
			// write was never acknowledged as durable, so nothing is
			// lost that was promised.
			s.ctr.TornTailsDropped++
			if err := os.Truncate(path, scan.TornAt); err != nil {
				s.ctr.IOErrors++
			}
			size = scan.TornAt
		}
		s.segs[id] = &segInfo{path: path, size: size}
		s.totalBytes += size
		for _, rec := range scan.Records {
			switch {
			case replay.Tombstones[tombKey{seg: id, off: rec.Off}]:
				s.ctr.Tombstoned++
			case rec.Epoch != s.epoch:
				// Stale epoch: rejected exactly as the in-memory tier
				// rejects entries that predate a bump.
				s.ctr.StaleDropped++
			default:
				s.index[rec.Key] = recLoc{seg: id, off: rec.Off, n: rec.Len, epoch: rec.Epoch}
			}
		}
	}
	for _, loc := range s.index {
		s.ctr.RecoveredRecords++
		s.ctr.RecoveredBytes += loc.n
	}

	// Reopen (or create) the active segment: the highest id survives
	// as the append target.
	s.activeID = 1
	if n := len(ids); n > 0 {
		if _, ok := s.segs[ids[n-1]]; ok {
			s.activeID = ids[n-1]
		} else {
			s.activeID = ids[n-1] + 1 // highest was quarantined whole
		}
	}
	return s.openActive()
}

// openActive opens the append handle for the current active segment,
// writing the magic when the file is new. Callers hold no lock only
// during Open; at runtime s.mu is held.
func (s *Store) openActive() error {
	path := segPath(s.dir, s.activeID)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("durable: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("durable: stat segment: %w", err)
	}
	if st.Size() == 0 {
		if _, err := f.Write([]byte(segMagic)); err != nil {
			f.Close()
			return fmt.Errorf("durable: init segment: %w", err)
		}
		s.totalBytes += int64(len(segMagic))
	}
	s.active = f
	if info, ok := s.segs[s.activeID]; ok {
		s.activeSize = info.size
	} else {
		s.activeSize = int64(len(segMagic))
		s.segs[s.activeID] = &segInfo{path: path, size: s.activeSize}
	}
	return nil
}

// quarantineBytes preserves suspect bytes under quarantine/ for
// post-mortem. Best-effort: quarantine failures are counted, never
// propagated — recovery must not fail on bad data.
func (s *Store) quarantineBytes(src string, off int64, data []byte) {
	name := fmt.Sprintf("%s-off%08d.rec", src, off)
	if err := os.WriteFile(filepath.Join(s.dir, "quarantine", name), data, 0o644); err != nil {
		s.ctr.IOErrors++
	}
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// Epoch returns the current invalidation epoch: the persisted one,
// unless SetEpoch has since reported a journal error.
func (s *Store) Epoch() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.epoch)
}

// SetEpoch adopts a new invalidation epoch, dropping every index entry
// from older epochs, and journals it (fsync'd). On-disk record bytes
// remain until segment eviction reclaims them; they can never be
// served (both the index drop here and the per-Get epoch check reject
// them — the lazy rejection mirror of the in-memory tier). The epoch
// is adopted even when the journal write fails, so this process never
// serves a record the bump retired; the returned error then says the
// bump will not survive a restart. Epochs are monotonic: a SetEpoch at
// or below the current epoch is a no-op, so racing bumps cannot
// persist out of order.
func (s *Store) SetEpoch(e int64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e < 0 || uint64(e) <= s.epoch {
		return nil
	}
	s.epoch = uint64(e)
	for k, loc := range s.index {
		if loc.epoch != s.epoch {
			delete(s.index, k)
			s.ctr.StaleDropped++
		}
	}
	if _, err := s.wal.Write(encodeEpochEntry(uint64(e))); err != nil {
		s.ctr.IOErrors++
		return fmt.Errorf("durable: journal epoch %d: %w", e, err)
	}
	if err := s.wal.Sync(); err != nil {
		s.ctr.IOErrors++
		return fmt.Errorf("durable: sync journal for epoch %d: %w", e, err)
	}
	return nil
}

// Get returns the body stored under key, re-verifying its CRC from
// disk. Stale-epoch entries are dropped; a record whose bytes no
// longer checksum is quarantined, tombstoned and reported as a miss —
// the store can lose entries at any time but never lies.
func (s *Store) Get(key string) ([]byte, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	loc, found := s.index[key]
	if !found {
		s.ctr.Misses++
		return nil, false
	}
	if loc.epoch != s.epoch {
		delete(s.index, key)
		s.ctr.StaleDropped++
		s.ctr.Misses++
		return nil, false
	}
	info := s.segs[loc.seg]
	if info == nil {
		delete(s.index, key)
		s.ctr.Misses++
		return nil, false
	}
	if info.rd == nil {
		f, err := os.Open(info.path)
		if err != nil {
			s.ctr.IOErrors++
			s.ctr.Misses++
			return nil, false
		}
		info.rd = f
	}
	buf := make([]byte, loc.n)
	if _, err := info.rd.ReadAt(buf, loc.off); err != nil {
		s.ctr.IOErrors++
		s.dropCorruptLocked(key, loc, buf)
		return nil, false
	}
	rec, _, kind := decodeRecord(buf, 0, s.opts.MaxRecordBytes)
	if kind != decodeOK || rec.Key != key || rec.Epoch != s.epoch {
		s.dropCorruptLocked(key, loc, buf)
		return nil, false
	}
	s.ctr.Hits++
	return rec.Body, true
}

// dropCorruptLocked handles a record that failed verification at Get:
// quarantine the bytes, tombstone the location (so recovery skips it
// even if the on-disk corruption was transient), drop the index entry.
func (s *Store) dropCorruptLocked(key string, loc recLoc, raw []byte) {
	s.ctr.CorruptDrops++
	s.ctr.Quarantined++
	s.ctr.Misses++
	s.quarantineBytes(fmt.Sprintf("seg%08d", loc.seg), loc.off, raw)
	if _, err := s.wal.Write(encodeTombstoneEntry(loc.seg, loc.off, key)); err == nil {
		s.wal.Sync()
	} else {
		s.ctr.IOErrors++
	}
	delete(s.index, key)
}

// Put appends a record for key at the current epoch. No fsync: a tail
// lost to a crash was never promised, and recovery drops it cleanly.
// Put never fails the caller; storage errors are counted and the entry
// is simply not durable.
func (s *Store) Put(key string, body []byte) {
	s.mu.Lock()
	defer s.mu.Unlock()
	enc := encodeRecord(key, s.epoch, body)
	if s.opts.MaxBytes < 0 || int64(len(enc)) > s.opts.MaxRecordBytes ||
		(s.opts.MaxBytes > 0 && int64(len(enc)) > s.opts.MaxBytes) {
		s.ctr.PutSkipped++
		return
	}
	if s.activeSize+int64(len(enc)) > s.opts.SegmentBytes && s.activeSize > int64(len(segMagic)) {
		if err := s.rotateLocked(); err != nil {
			s.ctr.IOErrors++
			return
		}
	}
	off := s.activeSize
	if _, err := s.active.Write(enc); err != nil {
		s.ctr.IOErrors++
		return
	}
	s.activeSize += int64(len(enc))
	s.segs[s.activeID].size = s.activeSize
	s.totalBytes += int64(len(enc))
	s.index[key] = recLoc{seg: s.activeID, off: off, n: int64(len(enc)), epoch: s.epoch}
	s.ctr.Puts++
	s.ctr.PutBytes += int64(len(enc))
	s.evictLocked()
}

// rotateLocked seals the active segment and opens the next one.
func (s *Store) rotateLocked() error {
	if err := s.active.Close(); err != nil {
		s.ctr.IOErrors++
	}
	s.active = nil
	s.activeID++
	return s.openActive()
}

// evictLocked deletes oldest sealed segments whole until the byte cap
// holds. The active segment is never evicted (rotation bounds it).
func (s *Store) evictLocked() {
	if s.opts.MaxBytes <= 0 {
		return
	}
	for s.totalBytes > s.opts.MaxBytes {
		victim := int64(-1)
		for id := range s.segs {
			if id != s.activeID && (victim < 0 || id < victim) {
				victim = id
			}
		}
		if victim < 0 {
			return
		}
		info := s.segs[victim]
		if info.rd != nil {
			info.rd.Close()
		}
		if err := os.Remove(info.path); err != nil {
			s.ctr.IOErrors++
		}
		s.totalBytes -= info.size
		delete(s.segs, victim)
		for k, loc := range s.index {
			if loc.seg == victim {
				delete(s.index, k)
				s.ctr.RecordsEvicted++
			}
		}
		s.ctr.SegmentsEvicted++
	}
}

// Counters snapshots the store counters.
func (s *Store) Counters() Counters {
	s.mu.Lock()
	defer s.mu.Unlock()
	c := s.ctr
	c.DiskBytes = s.totalBytes
	c.LiveRecords = int64(len(s.index))
	c.Segments = int64(len(s.segs))
	c.Epoch = int64(s.epoch)
	return c
}

// Close releases file handles. Nothing correctness-critical happens
// here — the store is crash-only, and pulling the plug is equivalent.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for _, f := range []*os.File{s.wal, s.active} {
		if f != nil {
			if err := f.Close(); err != nil && first == nil {
				first = err
			}
		}
	}
	s.wal, s.active = nil, nil
	for _, info := range s.segs {
		if info.rd != nil {
			info.rd.Close()
			info.rd = nil
		}
	}
	return first
}
