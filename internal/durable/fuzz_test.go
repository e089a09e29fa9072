package durable

import (
	"bytes"
	"hash/crc32"
	"testing"
)

// FuzzSegmentDecode drives both crash-recovery decoders — the segment
// scanner and the WAL replayer — with arbitrary bytes. Invariants: no
// panic on any input, every record the scanner returns re-verifies its
// CRC, and the scanner's partition of the file (records + corrupt spans
// + at most one torn tail) is well-formed.
func FuzzSegmentDecode(f *testing.F) {
	// Corpus: real segments — clean, truncated at every interesting
	// boundary, and bit-flipped — plus a real WAL image, per the ISSUE.
	seg := append([]byte(segMagic), encodeRecord("key-a", 1, []byte("body-a"))...)
	seg = append(seg, encodeRecord("key-b", 1, bytes.Repeat([]byte("b"), 100))...)
	f.Add(seg)
	f.Add(seg[:len(seg)-5])                 // torn tail mid-record
	f.Add(seg[:len(segMagic)+2])            // torn frame header
	f.Add(seg[:len(segMagic)])              // empty segment
	f.Add([]byte("NOTMAGIC trailing junk")) // foreign file
	flipped := append([]byte(nil), seg...)
	flipped[len(segMagic)+10] ^= 0x40 // corrupt first record's key area
	f.Add(flipped)
	hugeFrame := append([]byte(segMagic), 0xff, 0xff, 0xff, 0xff) // implausible frame length
	f.Add(hugeFrame)

	wal := append([]byte(walMagic), encodeEpochEntry(42)...)
	wal = append(wal, encodeTombstoneEntry(3, 512, "some-key")...)
	f.Add(wal)
	f.Add(wal[:len(wal)-2]) // torn journal tail

	const maxRecord = 1 << 20
	f.Fuzz(func(t *testing.T, data []byte) {
		scan := scanSegmentBytes(data, maxRecord)
		if scan.BadMagic {
			if len(scan.Records) != 0 || len(scan.Corrupt) != 0 {
				t.Fatal("bad-magic scan still produced records")
			}
		}
		for _, rec := range scan.Records {
			if rec.Len > int64(len(data)) || rec.Off < 0 || rec.Off+rec.Len > int64(len(data)) {
				t.Fatalf("record span [%d,%d) outside input of %d bytes", rec.Off, rec.Off+rec.Len, len(data))
			}
			// A returned record must re-verify: re-encoding the decoded
			// fields reproduces the stored bytes, except the status slot,
			// which is never read and so may hold anything in fuzzed
			// input (the CRC then differs too).
			stored := data[rec.Off : rec.Off+rec.Len]
			enc := encodeRecord(rec.Key, rec.Epoch, rec.Body)
			slot := 4 + 2 + len(rec.Key)
			if len(enc) != len(stored) || !bytes.Equal(enc[:slot], stored[:slot]) ||
				!bytes.Equal(enc[slot+2:len(enc)-4], stored[slot+2:len(stored)-4]) {
				t.Fatalf("decoded record does not re-encode to its stored bytes")
			}
			if crc32.Checksum(stored[4:len(stored)-4], castagnoli) != rec.CRC {
				t.Fatalf("scanner returned a record failing its own CRC")
			}
		}
		if scan.TornAt >= 0 && scan.TornAt > int64(len(data)) {
			t.Fatalf("TornAt %d beyond input", scan.TornAt)
		}

		replay := replayWALBytes(data)
		if replay.ValidLen > int64(len(data)) {
			t.Fatalf("WAL ValidLen %d beyond input", replay.ValidLen)
		}
		if replay.BadMagic && (replay.Epoch != 0 || len(replay.Tombstones) != 0) {
			t.Fatal("bad-magic WAL replay still produced state")
		}
	})
}
