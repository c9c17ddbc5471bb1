package checkpoint

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"runtime"
	"testing"
)

func encodeOrDie(t *testing.T, kind string, payload []byte) []byte {
	t.Helper()
	data, err := EncodeBytes(kind, payload)
	if err != nil {
		t.Fatalf("EncodeBytes: %v", err)
	}
	return data
}

func TestRoundTrip(t *testing.T) {
	for _, payload := range [][]byte{nil, {}, []byte("x"), bytes.Repeat([]byte{0xA5}, 4096)} {
		data := encodeOrDie(t, "test-kind", payload)
		got, err := DecodeBytes(data, "test-kind")
		if err != nil {
			t.Fatalf("DecodeBytes(%d-byte payload): %v", len(payload), err)
		}
		if !bytes.Equal(got, payload) {
			t.Fatalf("payload mismatch: got %d bytes, want %d", len(got), len(payload))
		}
	}
}

// TestTruncationEveryByte decodes every proper prefix of a valid frame:
// each must fail with ErrTruncated — never a nil error, never a partial
// payload, never an untyped error.
func TestTruncationEveryByte(t *testing.T) {
	data := encodeOrDie(t, "trunc", []byte("small deterministic payload"))
	for n := 0; n < len(data); n++ {
		_, err := DecodeBytes(data[:n], "trunc")
		if err == nil {
			t.Fatalf("prefix of %d/%d bytes decoded without error", n, len(data))
		}
		if !errors.Is(err, ErrTruncated) {
			t.Fatalf("prefix of %d/%d bytes: got %v, want ErrTruncated", n, len(data), err)
		}
	}
}

// TestCorruptionEveryByte flips each byte of a valid frame in turn; every
// mutation must surface as one of the package's typed errors.
func TestCorruptionEveryByte(t *testing.T) {
	data := encodeOrDie(t, "corrupt", []byte("small deterministic payload"))
	for i := range data {
		bad := append([]byte(nil), data...)
		bad[i] ^= 0xFF
		_, err := DecodeBytes(bad, "corrupt")
		if err == nil {
			t.Fatalf("flipping byte %d decoded without error", i)
		}
		var fe *FormatError
		var ve *VersionError
		switch {
		case errors.Is(err, ErrTruncated), errors.Is(err, ErrChecksum):
		case errors.As(err, &fe), errors.As(err, &ve):
		default:
			t.Fatalf("flipping byte %d: untyped error %v", i, err)
		}
	}
}

func TestKindMismatch(t *testing.T) {
	data := encodeOrDie(t, "rl-agent", []byte("{}"))
	_, err := DecodeBytes(data, "fl-engine")
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("kind mismatch: got %v, want *FormatError", err)
	}
}

func TestVersionMismatch(t *testing.T) {
	// Any version but this build's — a future one, or the JSON-payload
	// version 1 this build has no reader for — is a *VersionError.
	for _, v := range []byte{99, 1} {
		data := encodeOrDie(t, "v", []byte("payload"))
		data[8+3] = v // low byte of the big-endian version field
		_, err := DecodeBytes(data, "v")
		var ve *VersionError
		if !errors.As(err, &ve) {
			t.Fatalf("version %d: got %v, want *VersionError", v, err)
		}
		if ve.Got != uint32(v) {
			t.Fatalf("VersionError.Got = %d, want %d", ve.Got, v)
		}
	}
}

func TestBadMagic(t *testing.T) {
	data := encodeOrDie(t, "m", []byte("payload"))
	data[0] = 'X'
	_, err := DecodeBytes(data, "m")
	var fe *FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("bad magic: got %v, want *FormatError", err)
	}
}

func TestTrailingGarbageIgnored(t *testing.T) {
	// Decode consumes exactly one frame from a stream; bytes after it (a
	// follow-up frame) stay unread and are not an error.
	data := encodeOrDie(t, "t", []byte("payload"))
	r := bytes.NewReader(append(data, 0xDE, 0xAD))
	got, err := Decode(r, "t")
	if err != nil {
		t.Fatalf("trailing bytes: %v", err)
	}
	if string(got) != "payload" {
		t.Fatalf("payload = %q", got)
	}
	if r.Len() != 2 {
		t.Fatalf("Decode left %d bytes unread, want the 2 after the frame", r.Len())
	}
	// An in-memory blob, by contrast, is exactly one frame.
	var fe *FormatError
	if _, err := DecodeBytes(append(data, 0xDE, 0xAD), "t"); !errors.As(err, &fe) {
		t.Fatalf("DecodeBytes with trailing bytes: got %v, want FormatError", err)
	}
}

// TestHostileLengthAllocatesNothing is the 22-byte file: a valid header
// declaring a 4 GiB payload with no payload behind it. Both entry points
// must report truncation without allocating from the declared length
// (Decode used to make([]byte, 1<<32) before reading a payload byte).
func TestHostileLengthAllocatesNothing(t *testing.T) {
	blob := append([]byte(nil), magic[:]...)
	blob = binary.BigEndian.AppendUint32(blob, Version)
	blob = append(blob, 1, 'k')
	blob = binary.BigEndian.AppendUint64(blob, 1<<32)
	if len(blob) != 22 {
		t.Fatalf("blob is %d bytes, want 22", len(blob))
	}
	for name, decode := range map[string]func() ([]byte, error){
		"DecodeBytes": func() ([]byte, error) { return DecodeBytes(blob, "k") },
		"Decode":      func() ([]byte, error) { return Decode(bytes.NewReader(blob), "k") },
	} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, err := decode()
		runtime.ReadMemStats(&after)
		if !errors.Is(err, ErrTruncated) {
			t.Errorf("%s: got %v, want ErrTruncated", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%s allocated %d bytes for a 22-byte input", name, grew)
		}
	}
}

// TestDecodeBytesReturnsSubSlice pins the no-copy contract.
func TestDecodeBytesReturnsSubSlice(t *testing.T) {
	data := encodeOrDie(t, "k", []byte("payload"))
	got, err := DecodeBytes(data, "k")
	if err != nil {
		t.Fatal(err)
	}
	if &got[0] != &data[fixedHeader+1+8] || cap(got) != len(got) {
		t.Fatal("payload is not a capacity-clipped sub-slice of the input")
	}
}

// TestBeginFinishInPlace pins the in-place frame writer: a payload appended
// through the Enc yields the same bytes as framing it afterwards, a buffer
// sized by the hint is not re-grown, and only a Begin writer can Finish.
func TestBeginFinishInPlace(t *testing.T) {
	payload := bytes.Repeat([]byte{7}, 1000)
	want := encodeOrDie(t, "kind", payload)
	e := Begin("kind", len(want))
	start := &e.b[0]
	for _, b := range payload {
		e.b = append(e.b, b)
	}
	got, err := e.Finish()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("in-place frame differs from EncodeBytes")
	}
	if &got[0] != start {
		t.Fatal("a buffer sized by the hint was re-grown")
	}
	var fe *FormatError
	if _, err := NewEnc(8).Finish(); !errors.As(err, &fe) {
		t.Fatalf("Finish on a bare section: got %v, want FormatError", err)
	}
	if _, err := EncodeBytes("", nil); !errors.As(err, &fe) {
		t.Fatalf("empty kind: got %v, want FormatError", err)
	}
	if _, err := EncodeBytes(string(make([]byte, 256)), nil); !errors.As(err, &fe) {
		t.Fatalf("256-byte kind: got %v, want FormatError", err)
	}
}

func TestWriteReadFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "snap.ck")
	if err := WriteFile(path, "file-kind", []byte("on disk")); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path, "file-kind")
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if string(got) != "on disk" {
		t.Fatalf("payload = %q", got)
	}
	// No temp litter left behind by the atomic write.
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries after WriteFile, want 1", len(entries))
	}
}

func TestCompatErrorMessage(t *testing.T) {
	err := &CompatError{Field: "arch", Got: "resnet34", Want: "shufflenet"}
	want := `checkpoint: incompatible snapshot: arch is "resnet34", this run has "shufflenet"`
	if err.Error() != want {
		t.Fatalf("CompatError.Error() = %q, want %q", err.Error(), want)
	}
}
