package checkpoint

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
)

// Enc appends snapshot sections to one growing buffer. A section is a
// fixed sequence of primitives — the writer and the reader agree on the
// order, nothing is tagged — so an encoding is exactly its values:
// uvarint counts, zig-zag varint integers, raw little-endian float64 bits
// (bit-exact for every value including NaN payloads), and length-prefixed
// bytes. Equal state must be equal bytes: FloatsByID and IntsByID write
// maps in key order, and any other map-keyed state is the caller's to sort.
//
// The zero Enc is a bare section writer (Bytes returns what was appended);
// Begin returns one positioned inside a snapshot frame (Finish seals it).
type Enc struct {
	b       []byte
	payload int // offset of the first payload byte inside a Begin frame
}

// NewEnc returns a bare section writer with room for sizeHint bytes.
func NewEnc(sizeHint int) *Enc { return &Enc{b: make([]byte, 0, sizeHint)} }

// Bytes returns everything appended so far.
func (e *Enc) Bytes() []byte { return e.b }

// Uvarint appends an unsigned count or position.
func (e *Enc) Uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }

// Int appends a signed integer (zig-zag varint).
func (e *Enc) Int(v int) { e.b = binary.AppendVarint(e.b, int64(v)) }

// Int64 appends a signed 64-bit integer (zig-zag varint).
func (e *Enc) Int64(v int64) { e.b = binary.AppendVarint(e.b, v) }

// Bool appends one byte, 0 or 1.
func (e *Enc) Bool(v bool) {
	var x byte
	if v {
		x = 1
	}
	e.b = append(e.b, x)
}

// Float64 appends the value's IEEE 754 bits, little-endian.
func (e *Enc) Float64(v float64) {
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// RawBytes appends p length-prefixed.
func (e *Enc) RawBytes(p []byte) {
	e.Uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// String appends s length-prefixed.
func (e *Enc) String(s string) {
	e.Uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// Float64s appends a count and then each value's raw bits.
func (e *Enc) Float64s(v []float64) {
	e.Uvarint(uint64(len(v)))
	off := len(e.b)
	e.b = slices.Grow(e.b, 8*len(v))[:off+8*len(v)]
	for i, x := range v {
		binary.LittleEndian.PutUint64(e.b[off+8*i:], math.Float64bits(x))
	}
}

// Ints appends a count and then each value as a varint.
func (e *Enc) Ints(v []int) {
	e.Uvarint(uint64(len(v)))
	for _, x := range v {
		e.Int(x)
	}
}

// FloatsByID appends an int-keyed map as a count and then (key, value)
// pairs in key order.
func (e *Enc) FloatsByID(m map[int]float64) {
	e.Uvarint(uint64(len(m)))
	for _, k := range SortedKeys(m) {
		e.Int(k)
		e.Float64(m[k])
	}
}

// IntsByID is FloatsByID for integer values.
func (e *Enc) IntsByID(m map[int]int) {
	e.Uvarint(uint64(len(m)))
	for _, k := range SortedKeys(m) {
		e.Int(k)
		e.Int(m[k])
	}
}

// SortedKeys returns m's keys in increasing order — the order every
// map-keyed section is written in.
func SortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

// Stateful appends s's checkpoint state as one length-prefixed section.
func (e *Enc) Stateful(s Stateful) error {
	blob, err := s.CheckpointState()
	if err != nil {
		return err
	}
	e.RawBytes(blob)
	return nil
}

// Dec reads what Enc wrote. The first malformed or short read latches a
// *FormatError: every later read returns a zero value, so a decoder is a
// straight line of reads followed by one Done() check, and it has decoded
// into locals — mutated nothing — when that check fails. Every declared
// length is compared with the bytes that remain before anything is
// allocated, so a hostile header cannot make the reader over-allocate;
// byte and string sections come back as sub-slices of the input.
type Dec struct {
	b   []byte
	err *FormatError
}

// NewDec returns a reader over one section.
func NewDec(b []byte) *Dec { return &Dec{b: b} }

// fail latches the first error.
func (d *Dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = &FormatError{Reason: fmt.Sprintf(format, args...)}
	}
	d.b = nil
}

// Uvarint reads an unsigned count or position.
func (d *Dec) Uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if !d.varintOK(n) {
		return 0
	}
	d.b = d.b[n:]
	return v
}

// varintOK judges the n bytes a varint read consumed: the section must not
// end inside it, and it must be the shortest spelling of its value (a
// padded varint ends in a zero byte) — Dec accepts exactly what Enc
// writes, so an accepted section re-encodes to itself.
func (d *Dec) varintOK(n int) bool {
	switch {
	case n <= 0:
		d.fail("section ends inside a varint")
	case n > 1 && d.b[n-1] == 0:
		d.fail("padded varint")
	default:
		return true
	}
	return false
}

// Int64 reads a signed 64-bit integer.
func (d *Dec) Int64() int64 {
	v, n := binary.Varint(d.b)
	if !d.varintOK(n) {
		return 0
	}
	d.b = d.b[n:]
	return v
}

// Int reads a signed integer.
func (d *Dec) Int() int {
	v := d.Int64()
	if int64(int(v)) != v {
		d.fail("integer %d overflows int", v)
		return 0
	}
	return int(v)
}

// Bool reads one byte that must be 0 or 1.
func (d *Dec) Bool() bool {
	if len(d.b) == 0 || d.b[0] > 1 {
		d.fail("section ends inside a bool, or the byte is not 0/1")
		return false
	}
	v := d.b[0] == 1
	d.b = d.b[1:]
	return v
}

// Float64 reads one raw little-endian float64.
func (d *Dec) Float64() float64 {
	if len(d.b) < 8 {
		d.fail("section ends inside a float64")
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.b))
	d.b = d.b[8:]
	return v
}

// maxDraws bounds a restored RNG stream position. Restoring one replays
// the stream (rngstate.SeekTo is O(position)), so an absurd position in a
// crafted snapshot would be a hang; this is ~8x beyond what the largest
// supported eager run draws from one stream in 10^4 rounds.
const maxDraws = 1 << 32

// Draws reads an RNG stream position written with Uvarint.
func (d *Dec) Draws() uint64 {
	v := d.Uvarint()
	if v > maxDraws {
		d.fail("RNG stream position %d is beyond any run this build can replay", v)
		return 0
	}
	return v
}

// Count reads a declared element count and checks it against the bytes
// that remain, given that every element occupies at least minBytes: the
// caller may size an allocation by the result.
func (d *Dec) Count(minBytes int) int {
	n := d.Uvarint()
	if n > uint64(len(d.b)/minBytes) {
		d.fail("declared count %d exceeds the %d bytes that remain", n, len(d.b))
		return 0
	}
	return int(n)
}

// RawBytes reads a length-prefixed byte section as a sub-slice of the input.
func (d *Dec) RawBytes() []byte {
	n := d.Count(1)
	p := d.b[:n:n]
	d.b = d.b[n:]
	return p
}

// String reads a length-prefixed string.
func (d *Dec) String() string { return string(d.RawBytes()) }

// Float64s reads a counted run of raw float64s (nil when empty).
func (d *Dec) Float64s() []float64 {
	n := d.Count(8)
	if n == 0 {
		return nil
	}
	v := make([]float64, n)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(d.b[8*i:]))
	}
	d.b = d.b[8*n:]
	return v
}

// Ints reads a counted run of varints (nil when empty).
func (d *Dec) Ints() []int {
	n := d.Count(1)
	if n == 0 {
		return nil
	}
	v := make([]int, n)
	for i := range v {
		v[i] = d.Int()
	}
	return v
}

// FloatsByID reads what Enc.FloatsByID wrote into a fresh, never-nil map;
// keys out of order (or repeated) are a format error.
func (d *Dec) FloatsByID() map[int]float64 {
	n := d.Count(1 + 8)
	m := make(map[int]float64, n)
	for i, prev := 0, 0; i < n; i++ {
		k := d.Key(i, prev)
		m[k], prev = d.Float64(), k
	}
	return m
}

// IntsByID reads what Enc.IntsByID wrote.
func (d *Dec) IntsByID() map[int]int {
	n := d.Count(2)
	m := make(map[int]int, n)
	for i, prev := 0, 0; i < n; i++ {
		k := d.Key(i, prev)
		m[k], prev = d.Int(), k
	}
	return m
}

// Key reads the i-th key of a run emitted in key order: after the first,
// each must exceed its predecessor.
func (d *Dec) Key(i, prev int) int {
	k := d.Int()
	if i > 0 && k <= prev {
		d.fail("keys out of order (%d after %d)", k, prev)
	}
	return k
}

// Done reports the latched error, or a *FormatError when bytes remain: a
// section is exactly its fields.
func (d *Dec) Done() error {
	if d.err == nil && len(d.b) > 0 {
		d.fail("%d trailing bytes after the last field", len(d.b))
	}
	if d.err == nil {
		return nil
	}
	return d.err
}
