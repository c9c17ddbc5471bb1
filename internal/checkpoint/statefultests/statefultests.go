// Package statefultests is the conformance suite for checkpoint.Stateful
// implementations (the tensor/backendtests pattern): one set of checks,
// run over a table of every component in conformance_test.go and, from
// their own packages, over the types whose entry points are not
// importable here — the two engine kinds and the dist server.
//
// What a row proves:
//
//   - snapshot → restore into a fresh instance → snapshot is a byte fixed
//     point, so nothing the snapshot carries is lost or re-spelled;
//   - every strict prefix of the blob, and the blob with bytes appended,
//     is refused with one of the checkpoint package's typed errors, and
//     the refusing instance re-snapshots to exactly what it held before —
//     restore decodes into locals and mutates nothing on error;
//   - for a framed kind, the same bytes under container version 1 with a
//     valid checksum are a *checkpoint.VersionError{Got: 1}: there is no
//     reader for older snapshots.
package statefultests

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"errors"
	"testing"

	"floatfl/internal/checkpoint"
)

// Subject is one row of the table.
type Subject struct {
	// Fresh builds an instance configured like every other instance of the
	// row, holding no run state.
	Fresh func(t *testing.T) checkpoint.Stateful
	// Drive takes a fresh instance somewhere worth snapshotting.
	Drive func(t *testing.T, s checkpoint.Stateful)
	// Framed says the blob is a whole checkpoint frame (an engine kind, the
	// dist server) rather than a component's section.
	Framed bool
}

// Typed reports whether err is one of the checkpoint package's errors.
func Typed(err error) bool {
	var fe *checkpoint.FormatError
	var ce *checkpoint.CompatError
	var ve *checkpoint.VersionError
	return errors.Is(err, checkpoint.ErrTruncated) || errors.Is(err, checkpoint.ErrChecksum) ||
		errors.As(err, &fe) || errors.As(err, &ce) || errors.As(err, &ve)
}

func snapshot(t *testing.T, s checkpoint.Stateful) []byte {
	t.Helper()
	blob, err := s.CheckpointState()
	if err != nil {
		t.Fatalf("CheckpointState: %v", err)
	}
	return blob
}

// Run checks one subject.
func Run(t *testing.T, sub Subject) {
	src := sub.Fresh(t)
	sub.Drive(t, src)
	blob := snapshot(t, src)
	if again := snapshot(t, src); !bytes.Equal(blob, again) {
		t.Fatal("two snapshots of one quiescent instance differ")
	}

	dst := sub.Fresh(t)
	if bytes.Equal(snapshot(t, dst), blob) {
		t.Fatal("Drive left the instance in its fresh state; the row proves nothing")
	}
	if err := dst.RestoreCheckpoint(blob); err != nil {
		t.Fatalf("restore into a fresh instance: %v", err)
	}
	if got := snapshot(t, dst); !bytes.Equal(got, blob) {
		t.Fatalf("snapshot → restore → snapshot is not a byte fixed point (%d vs %d bytes)", len(got), len(blob))
	}

	// The refusals run against one instance: each must leave it as it was.
	victim := sub.Fresh(t)
	before := snapshot(t, victim)
	refuse := func(what string, bad []byte) error {
		t.Helper()
		err := victim.RestoreCheckpoint(bad)
		if err == nil {
			t.Fatalf("%s: restored without error", what)
		}
		if !Typed(err) {
			t.Fatalf("%s: untyped error %v", what, err)
		}
		if after := snapshot(t, victim); !bytes.Equal(after, before) {
			t.Fatalf("%s: the refused restore mutated the instance", what)
		}
		return err
	}
	// Every prefix of a small blob; a spread of ~500 over a large one, with
	// both ends always covered.
	step := 1 + len(blob)/500
	for n := 0; n < len(blob); n++ {
		if n > 64 && n < len(blob)-64 && n%step != 0 {
			continue
		}
		refuse("prefix", blob[:n])
	}
	refuse("one trailing byte", append(append([]byte(nil), blob...), 0))
	refuse("trailing garbage", append(append([]byte(nil), blob...), "garbage"...))

	if sub.Framed {
		var ve *checkpoint.VersionError
		if err := refuse("version 1 frame", reversion(blob, 1)); !errors.As(err, &ve) || ve.Got != 1 {
			t.Fatalf("version 1 frame with a valid checksum: got %v, want VersionError{Got: 1}", err)
		}
	}
}

// reversion rewrites a frame's container version and re-seals it, so the
// version check is what refuses it, not the checksum.
func reversion(frame []byte, version uint32) []byte {
	out := append([]byte(nil), frame[:len(frame)-sha256.Size]...)
	binary.BigEndian.PutUint32(out[8:], version)
	sum := sha256.Sum256(out)
	return append(out, sum[:]...)
}
