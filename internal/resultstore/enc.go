package resultstore

// The canonical versioned encoding. Durable keys and records must survive
// process restarts and struct evolution, which rules out reflective
// formatting (%+v changes meaning whenever a field is added, renamed or
// reordered). Enc makes the encoding explicit instead: callers append each
// field in declaration order with a fixed-width little-endian form, prefix
// the whole stream with a schema version byte, and bump the version
// whenever the field walk changes — old records then simply stop matching
// and are recomputed, never misread.

import (
	"encoding/binary"
	"math"
	"slices"

	"repro/internal/cache"
)

// Enc accumulates the canonical byte form of one key or record. The zero
// value is ready to use.
type Enc struct {
	b []byte
}

// Grow makes room for n more bytes, so an encoding whose size is known
// roughly up front is appended without reallocating.
func (e *Enc) Grow(n int) { e.b = slices.Grow(e.b, n) }

// Version appends the schema version byte; by convention the first append.
func (e *Enc) Version(v byte) { e.b = append(e.b, v) }

// U64 appends a fixed-width little-endian uint64.
func (e *Enc) U64(x uint64) { e.b = binary.LittleEndian.AppendUint64(e.b, x) }

// I64 appends a fixed-width little-endian int64.
func (e *Enc) I64(x int64) { e.U64(uint64(x)) }

// Int appends an int as a fixed-width int64 (platform-independent width).
func (e *Enc) Int(x int) { e.I64(int64(x)) }

// F64 appends a float64 as its IEEE-754 bit pattern — exact, no formatting
// round-trip.
func (e *Enc) F64(x float64) { e.U64(math.Float64bits(x)) }

// Str appends a length-prefixed string, so a delimiter inside one field can
// never forge another field's boundary.
func (e *Enc) Str(s string) {
	e.U64(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Bytes returns the canonical byte form accumulated so far. The slice
// aliases the encoder's buffer; callers that keep it must copy.
func (e *Enc) Bytes() []byte { return e.b }

// Len returns the encoded length in bytes.
func (e *Enc) Len() int { return len(e.b) }

// Sum64 hashes the canonical bytes into a 64-bit key (FNV-1a — the same
// stream cache.HashKey applies to string fingerprints).
func (e *Enc) Sum64() uint64 { return cache.HashBytes(e.b) }

// Dec walks a canonical encoding back into values, in the same order Enc
// appended them. Callers bounds-check up front (records are fixed-size);
// reading past the end returns zeros rather than panicking.
type Dec struct {
	b []byte
}

// NewDec returns a decoder over the canonical bytes.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// U64 reads one fixed-width little-endian uint64.
func (d *Dec) U64() uint64 {
	if len(d.b) < 8 {
		d.b = nil
		return 0
	}
	x := binary.LittleEndian.Uint64(d.b)
	d.b = d.b[8:]
	return x
}

// I64 reads one fixed-width little-endian int64.
func (d *Dec) I64() int64 { return int64(d.U64()) }

// F64 reads one IEEE-754 bit pattern.
func (d *Dec) F64() float64 { return math.Float64frombits(d.U64()) }
