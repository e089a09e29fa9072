package durable

import (
	"encoding/binary"
	"hash/crc32"
)

// Segment file layout: an 8-byte magic followed by back-to-back
// records. One record:
//
//	u32  frameLen  length of everything after this word (keyLen..crc)
//	u16  keyLen
//	     key       keyLen bytes
//	u16  status    always 200 (recStatus); written, never read
//	u64  epoch     the invalidation epoch the record was written under
//	     body      frameLen - keyLen - 16 bytes
//	u32  crc       CRC32C over [keyLen..body]
//
// The frame length is the skip distance past a record whose CRC fails,
// which is what lets recovery quarantine one corrupt record and keep
// scanning: the next record's own CRC vouches for the resync. A frame
// length that is itself implausible (below the fixed-field minimum,
// above MaxRecordBytes, or past EOF) cannot be trusted as a skip
// distance, so the scan stops there and treats the remainder as the
// torn tail a mid-write crash leaves.

const (
	segMagic = "XDSEG001"
	walMagic = "XDWAL001"

	// recFixed is the per-record overhead beyond key and body: the
	// keyLen, status, epoch and crc fields (the u32 frameLen header is
	// accounted separately).
	recFixed = 2 + 2 + 8 + 4

	// recStatus fills the status slot. Only complete 200 suites are
	// stored, so the slot carries nothing; it stays in the frame so
	// cache directories written by earlier binaries, which framed the
	// same 200 there, stay readable.
	recStatus = 200
)

// castagnoli is the CRC32C polynomial table (the checksum the framing
// name promises; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// encodeRecord renders one framed record.
func encodeRecord(key string, epoch uint64, body []byte) []byte {
	frame := recFixed + len(key) + len(body)
	out := make([]byte, 4+frame)
	binary.BigEndian.PutUint32(out, uint32(frame))
	off := 4
	binary.BigEndian.PutUint16(out[off:], uint16(len(key)))
	off += 2
	copy(out[off:], key)
	off += len(key)
	binary.BigEndian.PutUint16(out[off:], recStatus)
	off += 2
	binary.BigEndian.PutUint64(out[off:], epoch)
	off += 8
	copy(out[off:], body)
	off += len(body)
	binary.BigEndian.PutUint32(out[off:], crc32.Checksum(out[4:off], castagnoli))
	return out
}

// scannedRecord is one successfully decoded record.
type scannedRecord struct {
	Key   string
	Epoch uint64
	Body  []byte
	// Off/Len locate the encoded record (frameLen header included)
	// within its segment; CRC is the stored checksum.
	Off int64
	Len int64
	CRC uint32
}

// decodeKind classifies one decode step.
type decodeKind int

const (
	// decodeOK: a well-formed record.
	decodeOK decodeKind = iota
	// decodeCorrupt: the frame length is plausible but the record
	// inside it is not (shape or CRC failure) — skippable, quarantine
	// the bytes and continue at the next frame.
	decodeCorrupt
	// decodeTorn: no trustworthy frame at this offset (truncated
	// header, implausible length, or a frame past EOF) — the scan must
	// stop; everything from here is the torn tail.
	decodeTorn
)

// decodeRecord decodes the record starting at data[off]. n is the
// encoded length to skip (valid for decodeOK and decodeCorrupt).
func decodeRecord(data []byte, off int64, maxRecord int64) (rec scannedRecord, n int64, kind decodeKind) {
	if int64(len(data))-off < 4 {
		return rec, 0, decodeTorn
	}
	frame := int64(binary.BigEndian.Uint32(data[off:]))
	if frame < recFixed || frame > maxRecord {
		return rec, 0, decodeTorn
	}
	if off+4+frame > int64(len(data)) {
		return rec, 0, decodeTorn
	}
	buf := data[off+4 : off+4+frame]
	n = 4 + frame
	keyLen := int64(binary.BigEndian.Uint16(buf))
	if recFixed+keyLen > frame {
		return rec, n, decodeCorrupt
	}
	stored := binary.BigEndian.Uint32(buf[frame-4:])
	if crc32.Checksum(buf[:frame-4], castagnoli) != stored {
		return rec, n, decodeCorrupt
	}
	p := int64(2)
	key := string(buf[p : p+keyLen])
	p += keyLen + 2 // the status slot
	epoch := binary.BigEndian.Uint64(buf[p:])
	p += 8
	body := make([]byte, frame-4-p)
	copy(body, buf[p:frame-4])
	return scannedRecord{
		Key: key, Epoch: epoch, Body: body,
		Off: off, Len: n, CRC: stored,
	}, n, decodeOK
}

// span is a byte range within a segment file.
type span struct {
	Off int64
	Len int64
}

// segScan is the result of scanning one segment's bytes.
type segScan struct {
	// Records are the well-formed records in file order.
	Records []scannedRecord
	// Corrupt are the skippable corrupt ranges (quarantine these).
	Corrupt []span
	// TornAt is the offset of the torn tail (everything from TornAt to
	// EOF is dropped), or -1 when the file ends on a record boundary.
	TornAt int64
	// BadMagic reports a file that does not start with the segment
	// magic at all: nothing in it can be trusted, quarantine it whole.
	BadMagic bool
}

// scanSegmentBytes decodes a whole segment image. It never fails:
// every possible input is partitioned into records, corrupt spans and
// at most one torn tail. This is the function FuzzSegmentDecode drives.
func scanSegmentBytes(data []byte, maxRecord int64) segScan {
	s := segScan{TornAt: -1}
	if int64(len(data)) < int64(len(segMagic)) || string(data[:len(segMagic)]) != segMagic {
		s.BadMagic = true
		return s
	}
	off := int64(len(segMagic))
	for off < int64(len(data)) {
		rec, n, kind := decodeRecord(data, off, maxRecord)
		switch kind {
		case decodeOK:
			s.Records = append(s.Records, rec)
		case decodeCorrupt:
			s.Corrupt = append(s.Corrupt, span{Off: off, Len: n})
		case decodeTorn:
			s.TornAt = off
			return s
		}
		off += n
	}
	return s
}
