package resultstore

// Fuzz targets for the durable layer's two trust boundaries: the canonical
// Enc/Dec encoding (a round-trip that must be exact for every value,
// including the float bit patterns %v would mangle) and the segment scanner
// (which must absorb arbitrary on-disk bytes — crash tails, bit flips,
// hostile garbage — without panicking, without losing intact records, and
// without wedging the store against further writes, and reading exactly
// what the one-record-at-a-time reference scan reads).

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
)

func FuzzDecRoundTrip(f *testing.F) {
	f.Add(uint64(42), int64(-7), 3.141592653589793, "ffmpeg")
	f.Add(uint64(0), int64(0), 0.0, "")
	f.Add(uint64(math.MaxUint64), int64(math.MinInt64), math.Inf(-1), "a|b\nc")
	f.Add(uint64(1)<<56, int64(1), math.Float64frombits(0x7ff8000000000001), "x")
	f.Fuzz(func(t *testing.T, u uint64, i int64, fv float64, s string) {
		ver := byte(u >> 56)
		var e Enc
		e.Version(ver)
		e.U64(u)
		e.I64(i)
		e.F64(fv)
		e.Str(s)
		b := e.Bytes()
		if e.Len() != len(b) {
			t.Fatalf("Len %d != len(Bytes) %d", e.Len(), len(b))
		}
		// 1 version byte, three 8-byte fields, 8-byte string length, bytes.
		if want := 1 + 3*8 + 8 + len(s); len(b) != want {
			t.Fatalf("encoded %d bytes, want %d", len(b), want)
		}
		if b[0] != ver {
			t.Fatalf("version byte %#x, want %#x", b[0], ver)
		}

		d := NewDec(b[1:])
		if got := d.U64(); got != u {
			t.Fatalf("U64 = %d, want %d", got, u)
		}
		if got := d.I64(); got != i {
			t.Fatalf("I64 = %d, want %d", got, i)
		}
		// Compare bit patterns: NaN != NaN but its encoding is still exact.
		if got := d.F64(); math.Float64bits(got) != math.Float64bits(fv) {
			t.Fatalf("F64 = %v (%#x), want %v (%#x)",
				got, math.Float64bits(got), fv, math.Float64bits(fv))
		}
		if got := d.U64(); got != uint64(len(s)) {
			t.Fatalf("string length prefix = %d, want %d", got, len(s))
		}
		if got := string(b[1+3*8+8:]); got != s {
			t.Fatalf("string bytes = %q, want %q", got, s)
		}

		// The same field walk hashes to the same key, and reading past the
		// end of any prefix yields zeros, never a panic.
		var e2 Enc
		e2.Version(ver)
		e2.U64(u)
		e2.I64(i)
		e2.F64(fv)
		e2.Str(s)
		if e.Sum64() != e2.Sum64() {
			t.Fatalf("Sum64 not deterministic: %#x vs %#x", e.Sum64(), e2.Sum64())
		}
		for cut := 0; cut <= len(b); cut += 7 {
			d := NewDec(b[:cut])
			for j := 0; j < len(b)/8+2; j++ {
				d.U64()
			}
			if got := d.U64(); got != 0 {
				t.Fatalf("U64 past end of %d-byte prefix = %d, want 0", cut, got)
			}
		}
	})
}

// validRecord frames one intact u64Codec record the way Disk.append does.
func validRecord(key, val uint64) []byte {
	rec := binary.LittleEndian.AppendUint64(nil, key)
	rec = append(rec, 0, 0, 0, 0)
	rec = u64Codec{}.Append(rec, val)
	binary.LittleEndian.PutUint32(rec[8:], uint32(len(rec)-recHeaderLen))
	return binary.LittleEndian.AppendUint64(rec, sumRecord(rec))
}

func FuzzDiskRecord(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte(segMagic))
	f.Add(append([]byte(segMagic), validRecord(7, 99)...))
	f.Add(validRecord(3, 4))
	torn := append([]byte(segMagic), validRecord(5, 6)...)
	f.Add(torn[:len(torn)-3])
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		// Segment 1: a provably-intact record followed by arbitrary bytes —
		// whatever the tail decodes as, the intact prefix must survive.
		seg1 := append([]byte(segMagic), validRecord(7, 99)...)
		seg1 = append(seg1, tail...)
		if err := os.WriteFile(filepath.Join(dir, "seg-000001.psr"), seg1, 0o644); err != nil {
			t.Fatal(err)
		}
		// Segment 2: the raw fuzz bytes as an entire segment file.
		if err := os.WriteFile(filepath.Join(dir, "seg-000002.psr"), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		// The grouped scan reads both exactly as the serial reference does.
		checkScanMatchesSerial(t, "segment 1", seg1)
		checkScanMatchesSerial(t, "segment 2", tail)

		var warn bytes.Buffer
		d, err := Open[uint64](dir, u64Codec{}, WithWarnWriter(&warn))
		if err != nil {
			// Corruption must degrade to recomputation, never to an error.
			t.Fatalf("Open over corrupt segments: %v", err)
		}
		if v, ok := d.Get(7); !ok || v != 99 {
			t.Fatalf("intact record lost to trailing corruption: Get(7) = %d, %v\nwarnings:\n%s", v, ok, warn.String())
		}

		// The store must still accept writes and persist them across a
		// reopen — a corrupt directory degrades, it does not wedge.
		d.Put(1234, 5678)
		if err := d.Close(); err != nil {
			t.Fatalf("Close: %v", err)
		}
		d2, err := Open[uint64](dir, u64Codec{}, WithWarnWriter(&warn))
		if err != nil {
			t.Fatalf("reopen: %v", err)
		}
		defer d2.Close()
		if v, ok := d2.Get(7); !ok || v != 99 {
			t.Fatalf("intact record lost on reopen: Get(7) = %d, %v", v, ok)
		}
		if v, ok := d2.Get(1234); !ok || v != 5678 {
			t.Fatalf("appended record lost on reopen: Get(1234) = %d, %v", v, ok)
		}
	})
}
