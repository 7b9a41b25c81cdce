package resultstore

// The open scan checksums framed records four at a time. These tests hold
// it to scanSerial, the plain one-record-at-a-time walk it replaced: the
// same counts, the same warnings in the same order, and the same records
// handed to put in the same order, for every way a segment can be damaged
// at every position in a group.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"testing"
)

// scanSerial is the reference open scan: it frames, checksums and decodes
// one record at a time.
func scanSerial[V any](read func(string) ([]byte, error), path string, codec Codec[V], warner *Warner, put func(key uint64, v V)) (loaded, corrupt uint64, size int64) {
	data, err := read(path)
	if err != nil {
		warner.Warnf("unreadable-segment", "resultstore: %s: unreadable segment: %v (its results will be recomputed)", path, err)
		return 0, 1, 0
	}
	size = int64(len(data))
	if len(data) < len(segMagic) || string(data[:len(segMagic)]) != segMagic {
		warner.Warnf("bad-segment-header", "resultstore: %s: bad segment header — skipping segment (its results will be recomputed)", path)
		return 0, 1, size
	}
	off := len(segMagic)
	for off < len(data) {
		if len(data)-off < recHeaderLen+recSumLen {
			warner.Warnf("torn-record", "resultstore: %s: torn record at offset %d — dropping tail (will be recomputed)", path, off)
			corrupt++
			break
		}
		payloadLen := int(binary.LittleEndian.Uint32(data[off+8:]))
		end := off + recHeaderLen + payloadLen + recSumLen
		if payloadLen > MaxPayload || end > len(data) {
			warner.Warnf("torn-record", "resultstore: %s: torn or corrupt record at offset %d — dropping tail (will be recomputed)", path, off)
			corrupt++
			break
		}
		body := data[off : off+recHeaderLen+payloadLen]
		sum := binary.LittleEndian.Uint64(data[off+recHeaderLen+payloadLen:])
		if sumRecord(body) != sum {
			warner.Warnf("checksum-mismatch", "resultstore: %s: checksum mismatch at offset %d — skipping record (will be recomputed)", path, off)
			corrupt++
			off = end
			continue
		}
		key := binary.LittleEndian.Uint64(body)
		v, err := codec.Decode(body[recHeaderLen:])
		if err != nil {
			warner.Warnf("undecodable-record", "resultstore: %s: undecodable record at offset %d: %v — skipping record (will be recomputed)", path, off, err)
			corrupt++
			off = end
			continue
		}
		put(key, v)
		loaded++
		off = end
	}
	return loaded, corrupt, size
}

// scanOutcome is everything a scan of one segment shows: its return
// values, the warner's output (flushed, so suppression totals count) and
// the records handed to put, in order.
type scanOutcome struct {
	loaded, corrupt uint64
	size            int64
	warnings        string
	puts            []string
}

type scanFunc func(read func(string) ([]byte, error), path string, codec Codec[uint64], warner *Warner, put func(key uint64, v uint64)) (uint64, uint64, int64)

// runScan scans data as one segment with a warner limited to limit lines
// per category.
func runScan(scan scanFunc, data []byte, limit int) scanOutcome {
	var warn bytes.Buffer
	warner := NewWarner(&warn, limit)
	var out scanOutcome
	read := func(string) ([]byte, error) { return data, nil }
	out.loaded, out.corrupt, out.size = scan(read, "seg-000001.psr", u64Codec{}, warner, func(key, v uint64) {
		out.puts = append(out.puts, fmt.Sprintf("%d=%d", key, v))
	})
	warner.Flush()
	out.warnings = warn.String()
	return out
}

// checkScanMatchesSerial fails unless scanSegmentFile and scanSerial agree
// on data at the default warning limit and at a limit of one.
func checkScanMatchesSerial(t *testing.T, name string, data []byte) {
	t.Helper()
	for _, limit := range []int{DefaultWarnLimit, 1} {
		got := runScan(scanSegmentFile[uint64], data, limit)
		want := runScan(scanSerial[uint64], data, limit)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("%s (warn limit %d):\n got  %+v\n want %+v", name, limit, got, want)
		}
	}
}

// frameRaw frames one record around an arbitrary payload with a valid
// checksum.
func frameRaw(key uint64, payload []byte) []byte {
	rec := binary.LittleEndian.AppendUint64(nil, key)
	rec = binary.LittleEndian.AppendUint32(rec, uint32(len(payload)))
	rec = append(rec, payload...)
	return binary.LittleEndian.AppendUint64(rec, sumRecord(rec))
}

// segmentOf returns a segment of n intact records (key k, value k+1000)
// with rec(k) substituted for record k when rec returns non-nil, and the
// offset of every record.
func segmentOf(n int, rec func(k int) []byte) ([]byte, []int) {
	data := []byte(segMagic)
	var offs []int
	for k := 0; k < n; k++ {
		offs = append(offs, len(data))
		r := validRecord(uint64(k), uint64(k)+1000)
		if rec != nil {
			if alt := rec(k); alt != nil {
				r = alt
			}
		}
		data = append(data, r...)
	}
	return data, offs
}

func TestScanMatchesSerialScan(t *testing.T) {
	for n := 0; n <= 9; n++ {
		intact, offs := segmentOf(n, nil)
		checkScanMatchesSerial(t, fmt.Sprintf("%d intact", n), intact)
		for bad := 0; bad < n; bad++ {
			// A flipped payload byte: the checksum fails in this lane.
			flipped := bytes.Clone(intact)
			flipped[offs[bad]+recHeaderLen+3] ^= 0x40
			checkScanMatchesSerial(t, fmt.Sprintf("%d records, checksum mismatch at %d", n, bad), flipped)
			// A flipped checksum byte.
			flipped = bytes.Clone(intact)
			flipped[offs[bad]+recHeaderLen+9+2] ^= 0x01
			checkScanMatchesSerial(t, fmt.Sprintf("%d records, bad checksum field at %d", n, bad), flipped)

			for name, alt := range map[string][]byte{
				// Framed and summed correctly, but the codec rejects it:
				// a wrong schema byte, and a payload of another length
				// (lanes of unequal length).
				"wrong schema":  frameRaw(uint64(bad), altCodec{}.Append(nil, 7)),
				"long payload":  frameRaw(uint64(bad), make([]byte, 40)),
				"empty payload": frameRaw(uint64(bad), nil),
			} {
				data, _ := segmentOf(n, func(k int) []byte {
					if k == bad {
						return alt
					}
					return nil
				})
				checkScanMatchesSerial(t, fmt.Sprintf("%d records, %s at %d", n, name, bad), data)
			}

			// A length field past MaxPayload, one past the end of the
			// file, and one that desyncs the framing onto the next record.
			for _, length := range []uint32{MaxPayload + 1, uint32(len(intact)), 5} {
				data := bytes.Clone(intact)
				binary.LittleEndian.PutUint32(data[offs[bad]+8:], length)
				checkScanMatchesSerial(t, fmt.Sprintf("%d records, length %d at %d", n, length, bad), data)
			}
		}
		// A torn tail at every offset: inside the magic, and at and inside
		// every record of every group.
		for cut := 0; cut < len(intact); cut++ {
			checkScanMatchesSerial(t, fmt.Sprintf("%d records cut at %d", n, cut), intact[:cut])
		}
	}
	// Every record damaged, so the warnings reach their limit mid-group.
	data, _ := segmentOf(9, func(k int) []byte {
		if k%2 == 0 {
			return frameRaw(uint64(k), altCodec{}.Append(nil, 7))
		}
		r := validRecord(uint64(k), 1)
		r[recHeaderLen] ^= 0xff
		return r
	})
	checkScanMatchesSerial(t, "every record damaged", data)
	checkScanMatchesSerial(t, "bad header", []byte("PSRSEG2\n"))
}
