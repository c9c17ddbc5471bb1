// Package checkpoint defines the repo's snapshot container and encoding: a
// versioned, checksummed frame around one payload, the section writer and
// bounded reader every payload is built from (Enc and Dec, wire.go), and
// the Stateful interface components implement to join an engine checkpoint.
//
// The frame is deliberately dumb — magic, version, a kind string naming
// what the payload is (an engine snapshot, an RL agent, a dist server),
// the payload length, the payload, and a SHA-256 over everything before
// it. All interpretation lives with the owner of the kind. Decoding
// verifies the checksum before returning a single payload byte, so a
// caller that validates the decoded payload before mutating any state
// gets the "corrupt snapshot ⇒ zero partial restore" guarantee for free.
//
// Every error is typed: ErrTruncated for short reads, ErrChecksum for
// integrity failures, *FormatError for bad magic, a kind mismatch or a
// malformed payload section, *VersionError for a container version this
// build does not read, and *CompatError for payload-level
// incompatibilities (a snapshot from a different configuration). Callers
// branch with errors.Is / errors.As.
package checkpoint

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// Version is the container format version. Version 1 framed JSON payloads;
// version 2 frames Enc sections. There is no reader for older versions: a
// blob of any other version is a *VersionError.
const Version = 2

// magic opens every snapshot file; eight bytes so hexdump shows it whole.
var magic = [8]byte{'F', 'L', 'O', 'A', 'T', 'C', 'K', '\n'}

// fixedHeader is the part of the header whose size does not depend on the
// kind: magic, big-endian version, kind length. The kind and the
// big-endian payload length follow.
const fixedHeader = len(magic) + 4 + 1

// maxPayload bounds the declared payload length. No reader allocates from
// the declared length — DecodeBytes compares it with the bytes it holds,
// Decode grows with the bytes it actually reads — so this is a sanity
// check on the header, not a memory bound.
const maxPayload = 1 << 32

// ErrTruncated reports a snapshot that ends before its declared content.
var ErrTruncated = errors.New("checkpoint: truncated snapshot")

// ErrChecksum reports a snapshot whose bytes do not match its checksum.
var ErrChecksum = errors.New("checkpoint: checksum mismatch")

// FormatError reports a structurally invalid snapshot: wrong magic, a
// payload kind different from what the caller asked to decode, bytes after
// the frame, or a payload section that does not parse.
type FormatError struct{ Reason string }

func (e *FormatError) Error() string { return "checkpoint: " + e.Reason }

// VersionError reports a container version this build cannot read.
type VersionError struct{ Got uint32 }

func (e *VersionError) Error() string {
	return fmt.Sprintf("checkpoint: unsupported snapshot version %d (this build reads %d)", e.Got, Version)
}

// CompatError reports a payload that decoded cleanly but belongs to an
// incompatible configuration — resuming it would silently diverge.
type CompatError struct{ Field, Got, Want string }

func (e *CompatError) Error() string {
	return fmt.Sprintf("checkpoint: incompatible snapshot: %s is %q, this run has %q", e.Field, e.Got, e.Want)
}

// Stateful is the optional interface a component implements to join an
// engine checkpoint. CheckpointState must be called only when the
// component is quiescent (the engines' single-threaded collect boundary)
// and must return a self-contained, deterministic encoding — byte-stable
// across processes, so map-keyed state is emitted in sorted order.
// RestoreCheckpoint replaces the component's mutable state with the
// decoded blob. It decodes and validates into locals first (Dec latches
// the first malformed read; Done rejects trailing bytes), so on error —
// always a *FormatError, *CompatError or *VersionError, possibly wrapped —
// the component is exactly as it was. It keeps nothing of data: the
// caller may overwrite the blob as soon as it returns.
type Stateful interface {
	CheckpointState() ([]byte, error)
	RestoreCheckpoint(data []byte) error
}

// Appender is the encoding body of a Stateful component: it appends the
// section CheckpointState would return to e, in place. Enc.Stateful
// prefers it, so a component writes straight into the engine's frame and
// its CheckpointState is StateOf.
type Appender interface {
	AppendCheckpoint(e *Enc) error
}

// StateOf is an Appender's CheckpointState: its section in a bare writer
// of its own.
func StateOf(a Appender) ([]byte, error) {
	var e Enc
	err := a.AppendCheckpoint(&e)
	return e.Bytes(), err
}

// Begin starts a frame of the given kind in a fresh writer with room for
// sizeHint bytes and returns it positioned at the first payload byte.
func Begin(kind string, sizeHint int) *Enc {
	e := NewEnc(sizeHint)
	e.Begin(kind)
	return e
}

// Begin starts a frame of the given kind in e's own buffer, positioned at
// the first payload byte: what e held is overwritten and its capacity —
// the size of the last frame it sealed — is kept, so a writer re-encoding
// a snapshot of steady size allocates nothing. The payload is appended in
// place and Finish seals the frame: there is no intermediate payload
// slice. The buffer grows by append's policy when a frame outgrows it.
func (e *Enc) Begin(kind string) {
	e.b = append(e.b[:0], magic[:]...)
	e.b = binary.BigEndian.AppendUint32(e.b, Version)
	e.b = append(e.b, byte(len(kind)))
	e.b = append(e.b, kind...)
	e.b = binary.BigEndian.AppendUint64(e.b, 0) // payload length, patched by Finish
	e.payload = len(e.b)
	e.keys = e.keys[:0]
}

// Finish patches the payload length into the header, appends the SHA-256
// of everything before it, and returns the finished frame: e's buffer,
// valid until e's next Begin.
func (e *Enc) Finish() ([]byte, error) {
	klen := e.payload - fixedHeader - 8
	if klen <= 0 || klen > 255 {
		return nil, &FormatError{Reason: "invalid snapshot kind (1 to 255 bytes, and only a Begin writer can Finish)"}
	}
	plen := len(e.b) - e.payload
	if plen > maxPayload {
		return nil, &FormatError{Reason: "payload too large"}
	}
	binary.BigEndian.PutUint64(e.b[e.payload-8:], uint64(plen))
	sum := sha256.Sum256(e.b)
	e.b = append(e.b, sum[:]...)
	return e.b, nil
}

// EncodeBytes frames an already-built payload.
func EncodeBytes(kind string, payload []byte) ([]byte, error) {
	e := Begin(kind, fixedHeader+len(kind)+8+len(payload)+sha256.Size)
	e.b = append(e.b, payload...)
	return e.Finish()
}

// header parses as much of a frame header as b holds: the kind, the
// declared payload length and the header's size. Magic and version are
// judged as soon as their bytes are present, so a short non-snapshot file
// is "bad magic", not "truncated".
func header(b []byte) (kind []byte, plen uint64, n int, err error) {
	if len(b) >= len(magic) && [len(magic)]byte(b) != magic {
		return nil, 0, 0, &FormatError{Reason: "bad magic (not a snapshot file)"}
	}
	if len(b) >= fixedHeader-1 {
		if v := binary.BigEndian.Uint32(b[len(magic):]); v != Version {
			return nil, 0, 0, &VersionError{Got: v}
		}
	}
	if len(b) < fixedHeader {
		return nil, 0, 0, ErrTruncated
	}
	n = fixedHeader + int(b[fixedHeader-1]) + 8
	if len(b) < n {
		return nil, 0, 0, ErrTruncated
	}
	plen = binary.BigEndian.Uint64(b[n-8:])
	if plen > maxPayload {
		return nil, 0, 0, &FormatError{Reason: "declared payload length too large"}
	}
	return b[fixedHeader : n-8], plen, n, nil
}

// DecodeBytes verifies an in-memory snapshot — exactly one frame, nothing
// after it — and returns its payload as a sub-slice of data: no copy, and
// no allocation whatever the header declares. kind must match the encoded
// kind exactly; pass the same constant the writer used so an agent file
// cannot be fed to the engine restore path (or vice versa).
func DecodeBytes(data []byte, kind string) ([]byte, error) {
	got, plen, n, err := header(data)
	if err != nil {
		return nil, err
	}
	if uint64(len(data)-n) < plen+sha256.Size {
		return nil, ErrTruncated
	}
	end := n + int(plen)
	if sha256.Sum256(data[:end]) != [sha256.Size]byte(data[end:]) {
		return nil, ErrChecksum
	}
	if extra := len(data) - end - sha256.Size; extra > 0 {
		return nil, &FormatError{Reason: fmt.Sprintf("%d bytes after the frame", extra)}
	}
	// Kind is checked after the checksum: a mismatch on intact bytes is a
	// caller error ("wrong file"), not corruption.
	if string(got) != kind {
		return nil, &FormatError{Reason: fmt.Sprintf("snapshot holds %q, caller wants %q", got, kind)}
	}
	return data[n:end:end], nil
}

// Decode reads exactly one frame from r (bytes after it stay unread),
// verifies it, and returns the payload. The buffer grows with the bytes
// actually read, never from the declared length.
func Decode(r io.Reader, kind string) ([]byte, error) {
	frame := make([]byte, fixedHeader, fixedHeader+255+8)
	if n, err := io.ReadFull(r, frame); err != nil {
		return nil, shortRead(frame[:n], err)
	}
	frame = frame[:fixedHeader+int(frame[fixedHeader-1])+8]
	if n, err := io.ReadFull(r, frame[fixedHeader:]); err != nil {
		return nil, shortRead(frame[:fixedHeader+n], err)
	}
	_, plen, _, err := header(frame)
	if err != nil {
		return nil, err
	}
	buf := bytes.NewBuffer(frame)
	if _, err := buf.ReadFrom(io.LimitReader(r, int64(plen)+sha256.Size)); err != nil {
		return nil, err
	}
	return DecodeBytes(buf.Bytes(), kind)
}

// shortRead explains a header read that ended early: whatever header
// judges wrong with the bytes that did arrive (ErrTruncated at the least),
// or the reader's own error.
func shortRead(got []byte, err error) error {
	if err != io.EOF && err != io.ErrUnexpectedEOF {
		return err
	}
	_, _, _, herr := header(got)
	return herr
}

// WriteFile encodes a snapshot to path atomically: the frame is written
// to a temp file in the same directory and renamed into place, so a crash
// mid-write never leaves a half snapshot where a resume flag points.
func WriteFile(path, kind string, payload []byte) error {
	data, err := EncodeBytes(kind, payload)
	if err != nil {
		return err
	}
	return WriteRaw(path, data)
}

// WriteRaw atomically writes an already-framed snapshot (the bytes an
// engine checkpoint sink receives) to path via temp file + rename.
func WriteRaw(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	return nil
}

// ReadFile decodes a snapshot file written by WriteFile.
func ReadFile(path, kind string) ([]byte, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Decode(f, kind)
}
