package checkpoint

import (
	"bytes"
	"errors"
	"math"
	"reflect"
	"runtime"
	"testing"
)

// writeAll appends one of everything; readAll reads it back in the same
// order. Together they are the format's self-description.
func writeAll(e *Enc) {
	e.Uvarint(300)
	e.Int(-7)
	e.Int64(math.MinInt64)
	e.Bool(true)
	e.Float64(math.Float64frombits(0x7ff8_dead_beef_0001)) // a NaN with a payload
	e.RawBytes([]byte("raw"))
	e.String("name")
	e.Float64s([]float64{1.5, -0, math.Inf(1)})
	e.Ints([]int{3, -1, 1 << 40})
	e.FloatsByID(map[int]float64{9: 0.25, -2: 1, 4: 3})
	IntsByKey(e, map[int]int{5: 50, 1: 10})
	e.Float64s(nil)
}

type everything struct {
	U    uint64
	I    int
	I64  int64
	B    bool
	Bits uint64
	Raw  []byte
	S    string
	Fs   []float64
	Is   []int
	FM   map[int]float64
	IM   map[int]int
	None []float64
}

func readAll(d *Dec) everything {
	return everything{
		U: d.Uvarint(), I: d.Int(), I64: d.Int64(), B: d.Bool(), Bits: math.Float64bits(d.Float64()),
		Raw: d.RawBytes(), S: d.String(), Fs: d.Float64s(), Is: d.Ints(),
		FM: d.FloatsByID(), IM: d.IntsByID(), None: d.Float64s(),
	}
}

func TestWireRoundTrip(t *testing.T) {
	e := NewEnc(0)
	writeAll(e)
	d := NewDec(e.Bytes())
	got := readAll(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	want := everything{
		U: 300, I: -7, I64: math.MinInt64, B: true, Bits: 0x7ff8_dead_beef_0001,
		Raw: []byte("raw"), S: "name", Fs: []float64{1.5, -0, math.Inf(1)}, Is: []int{3, -1, 1 << 40},
		FM: map[int]float64{9: 0.25, -2: 1, 4: 3}, IM: map[int]int{5: 50, 1: 10},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
	}
	// Map-keyed sections are emitted in key order: two encodings of equal
	// state are equal bytes.
	e2 := NewEnc(0)
	writeAll(e2)
	if !bytes.Equal(e.Bytes(), e2.Bytes()) {
		t.Fatal("encoding is not deterministic")
	}
}

// section is an Appender of n bytes.
type section int

func (n section) AppendCheckpoint(e *Enc) error {
	for i := range int(n) {
		e.b = append(e.b, byte(i))
	}
	return nil
}

func (n section) CheckpointState() ([]byte, error) { return StateOf(n) }

func (section) RestoreCheckpoint([]byte) error { return nil }

// TestStatefulInPlaceIsBlob: an Appender's section, written in place and
// moved by its length prefix, is the bytes RawBytes writes for its blob,
// for prefixes of one, two and three bytes.
func TestStatefulInPlaceIsBlob(t *testing.T) {
	for _, n := range []section{0, 1, 127, 128, 16383, 16384} {
		want, got := NewEnc(0), NewEnc(0)
		want.Uvarint(7)
		got.Uvarint(7)
		blob, _ := n.CheckpointState()
		want.RawBytes(blob)
		if err := got.Stateful(n); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("a %d-byte section written in place differs from its blob form", n)
		}
	}
}

// TestWireEveryPrefixLatches reads every strict prefix of a section: the
// error is a *FormatError, latched (later reads return zero values and do
// not panic), and trailing bytes are an error too.
func TestWireEveryPrefixLatches(t *testing.T) {
	e := NewEnc(0)
	writeAll(e)
	full := e.Bytes()
	var fe *FormatError
	for n := 0; n < len(full); n++ {
		d := NewDec(full[:n])
		readAll(d)
		if err := d.Done(); !errors.As(err, &fe) {
			t.Fatalf("prefix %d/%d: got %v, want FormatError", n, len(full), err)
		}
	}
	d := NewDec(append(append([]byte(nil), full...), 0))
	readAll(d)
	if err := d.Done(); !errors.As(err, &fe) {
		t.Fatalf("trailing byte: got %v, want FormatError", err)
	}
}

// TestWireDeclaredCountsAreBounded feeds each counted reader a count far
// beyond the bytes that follow: a format error, and nothing allocated from
// the declared count.
func TestWireDeclaredCountsAreBounded(t *testing.T) {
	huge := NewEnc(0)
	huge.Uvarint(1 << 40)
	huge.Float64(1) // eight bytes follow, not 2^40 elements
	readers := map[string]func(d *Dec){
		"RawBytes":   func(d *Dec) { d.RawBytes() },
		"Float64s":   func(d *Dec) { d.Float64s() },
		"Ints":       func(d *Dec) { d.Ints() },
		"FloatsByID": func(d *Dec) { d.FloatsByID() },
		"IntsByID":   func(d *Dec) { d.IntsByID() },
		"Count":      func(d *Dec) { _ = make([]int64, d.Count(8)) },
	}
	for name, read := range readers {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		d := NewDec(huge.Bytes())
		read(d)
		err := d.Done()
		runtime.ReadMemStats(&after)
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want FormatError", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<16 {
			t.Errorf("%s allocated %d bytes from a declared count", name, grew)
		}
	}
}

func TestWireRejectsNonCanonical(t *testing.T) {
	var fe *FormatError
	// A bool byte other than 0/1.
	d := NewDec([]byte{2})
	d.Bool()
	if err := d.Done(); !errors.As(err, &fe) {
		t.Errorf("bool byte 2: got %v, want FormatError", err)
	}
	// A varint spelled longer than it needs to be.
	d = NewDec([]byte{0x85, 0x00})
	d.Uvarint()
	if err := d.Done(); !errors.As(err, &fe) {
		t.Errorf("padded varint: got %v, want FormatError", err)
	}
	// Keys out of order.
	e := NewEnc(0)
	e.Uvarint(2)
	e.Int(5)
	e.Int(50)
	e.Int(5)
	e.Int(51)
	d = NewDec(e.Bytes())
	d.IntsByID()
	if err := d.Done(); !errors.As(err, &fe) {
		t.Errorf("repeated key: got %v, want FormatError", err)
	}
	// An RNG position no run can have reached.
	e = NewEnc(0)
	e.Uvarint(1 << 40)
	d = NewDec(e.Bytes())
	d.Draws()
	if err := d.Done(); !errors.As(err, &fe) {
		t.Errorf("absurd RNG position: got %v, want FormatError", err)
	}
}
