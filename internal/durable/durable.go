// Package durable is the crash-only, disk-backed persistence layer
// under the xdatad daemon: it makes the cross-request suite cache, the
// invalidation epoch, and failure evidence survive process death, so a
// kill -9'd or redeployed daemon rejoins the fleet warm instead of
// cold and incidents stay reproducible after the process that hit them
// is gone.
//
// Three pieces, layered bottom-up:
//
//   - Segments (segment.go): append-only files of self-describing
//     records framed [len‖key‖status‖epoch‖body‖CRC32C], where the
//     status slot always holds 200: only complete suites are stored,
//     so the slot is written and never read. Records are
//     written without fsync — the store is a cache, and the recovery
//     contract below makes a torn tail harmless — and segments rotate
//     at a size threshold so eviction can reclaim disk in whole-file
//     units.
//   - Write-ahead journal (wal.go): epoch bumps and record tombstones,
//     CRC-framed and fsync'd on every append. The WAL is tiny (these
//     events are rare) and is the only durability point the store
//     promises: an acknowledged epoch bump survives any crash.
//   - Store (store.go): the content-addressed key → body
//     index over the segments, with crash recovery at Open. Recovery
//     never fails startup on bad data: it scans every segment, drops
//     the torn tail a mid-write crash leaves, quarantines records
//     whose CRC no longer matches into quarantine/ for post-mortem,
//     replays the WAL for the persisted epoch and tombstones, and
//     rebuilds the in-memory index so the first Get after restart is
//     served from disk.
//
// The crash-only design principle: there is no shutdown path that the
// recovery path does not also handle. Close flushes nothing that
// correctness needs; pulling the plug is an ordinary stop.
//
// bundle.go is the fourth, independent piece: self-contained failure
// repro bundles (schema DDL + query SQL + canonical options + the
// abandoned goal's evidence) written under a failure directory and
// replayed deterministically by `xdata -replay`.
package durable

// Options tunes a Store. The zero value of any field selects the
// documented default.
type Options struct {
	// MaxBytes caps total segment bytes on disk; beyond it the oldest
	// sealed segments are deleted whole (their records fall out of the
	// index — cache semantics, never an error). 0 = unbounded,
	// negative = store nothing (ablation).
	MaxBytes int64
	// SegmentBytes is the rotation threshold for the active segment
	// (0 = 4 MiB). Smaller segments give finer-grained eviction at the
	// cost of more files.
	SegmentBytes int64
	// MaxRecordBytes bounds one record's encoded size, both at Put
	// (oversized payloads are not stored) and at recovery (a frame
	// length beyond it is treated as a torn tail, not trusted as a
	// skip distance). 0 = 64 MiB.
	MaxRecordBytes int64
}

func (o Options) normalize() Options {
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 4 << 20
	}
	if o.MaxRecordBytes <= 0 {
		o.MaxRecordBytes = 64 << 20
	}
	return o
}

// Counters is a point-in-time snapshot of a Store's counters; gauges
// are noted, everything else is monotonic over the store's lifetime.
// The JSON names surface verbatim in the daemon's /statsz durable
// section.
type Counters struct {
	// RecoveredRecords/RecoveredBytes describe what Open rebuilt into
	// the index: the warm-restart payload.
	RecoveredRecords int64 `json:"recovered_records"`
	RecoveredBytes   int64 `json:"recovered_bytes"`
	// TornTailsDropped counts segment tails dropped at recovery — the
	// partial record a mid-write crash leaves at the end of the active
	// segment.
	TornTailsDropped int64 `json:"torn_tails_dropped"`
	// Quarantined counts corrupt byte ranges moved to quarantine/
	// (CRC or framing failures at recovery, CRC failures at Get).
	Quarantined int64 `json:"quarantined"`
	// StaleDropped counts records rejected for predating the current
	// epoch (at recovery, at Get, or dropped by SetEpoch).
	StaleDropped int64 `json:"stale_dropped"`
	// Tombstoned counts records skipped at recovery because a WAL
	// tombstone named them.
	Tombstoned int64 `json:"tombstoned"`
	// Hits/Misses count Gets served from / not served from disk.
	Hits   int64 `json:"disk_hits"`
	Misses int64 `json:"disk_misses"`
	// Puts/PutBytes count records appended; PutSkipped counts payloads
	// not stored (oversized or a negative-cap store).
	Puts       int64 `json:"disk_puts"`
	PutBytes   int64 `json:"disk_put_bytes"`
	PutSkipped int64 `json:"disk_put_skipped"`
	// CorruptDrops counts records dropped at Get because their stored
	// CRC no longer matched (each is also Quarantined and tombstoned).
	CorruptDrops int64 `json:"corrupt_drops"`
	// SegmentsEvicted/RecordsEvicted count whole-segment byte-cap
	// evictions and the live records they took down.
	SegmentsEvicted int64 `json:"segments_evicted"`
	RecordsEvicted  int64 `json:"records_evicted"`
	// IOErrors counts write/read failures the store absorbed (a cache
	// never fails its caller on I/O; the entry is just not served or
	// not stored).
	IOErrors int64 `json:"io_errors"`
	// DiskBytes/LiveRecords/Segments are gauges of current residency.
	DiskBytes   int64 `json:"disk_bytes"`
	LiveRecords int64 `json:"live_records"`
	Segments    int64 `json:"segments"`
	// Epoch is the current invalidation epoch (see Store.Epoch).
	Epoch int64 `json:"epoch"`
}
