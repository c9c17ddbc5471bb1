package metrics

import (
	"bytes"
	"errors"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// section encodes a ledger's checkpoint section.
func section(l *Ledger) []byte {
	e := checkpoint.NewEnc(0)
	l.AppendCheckpoint(e)
	return e.Bytes()
}

// decode reads a section back, requiring it to be exactly one ledger.
func decode(t *testing.T, blob []byte) *LedgerState {
	t.Helper()
	d := checkpoint.NewDec(blob)
	st := DecodeLedgerState(d)
	if err := d.Done(); err != nil {
		t.Fatalf("decode: %v", err)
	}
	return st
}

// exercise drives a ledger through a representative mix of outcomes.
func exercise(l *Ledger) {
	l.Record(3, opt.TechNone, device.Outcome{Completed: true, Cost: device.Cost{ComputeSeconds: 360, CommSeconds: 36}})
	l.Record(70, opt.TechQuant8, device.Outcome{Completed: false, Reason: device.DropDeadline, Cost: device.Cost{ComputeSeconds: 720}})
	l.Record(3, opt.TechPrune50, device.Outcome{Completed: true})
	l.RecordDiscarded(129, opt.TechNone, device.Outcome{Cost: device.Cost{CommSeconds: 90}})
	l.WallClockSeconds = 123.25
}

// aggregates collects every order-sensitive derived statistic.
func aggregates(l *Ledger) [6]float64 {
	return [6]float64{
		l.SelectionGini(), l.SelectionJainIndex(),
		l.NeverSelectedFraction(), l.NeverCompletedFraction(),
		l.DropRate(), l.WallClockSeconds,
	}
}

// TestLedgerCheckpointRoundTrip proves state → section → restore
// reproduces every tally and aggregate exactly, in both dense and sparse
// modes, and that the restored ledger re-encodes to the same bytes.
func TestLedgerCheckpointRoundTrip(t *testing.T) {
	for _, sparse := range []bool{false, true} {
		mk := NewLedger
		if sparse {
			mk = NewSparseLedger
		}
		src := mk(200)
		exercise(src)
		blob := section(src)
		dst := mk(200)
		if err := dst.RestoreCheckpoint(decode(t, blob)); err != nil {
			t.Fatalf("sparse=%v: restore: %v", sparse, err)
		}
		if !bytes.Equal(section(dst), blob) {
			t.Fatalf("sparse=%v: restore → section is not a byte fixed point", sparse)
		}
		if aggregates(dst) != aggregates(src) {
			t.Fatalf("sparse=%v: aggregates diverge: %v vs %v", sparse, aggregates(dst), aggregates(src))
		}
		for _, id := range []int{0, 3, 70, 129, 199} {
			if dst.SelectedCount(id) != src.SelectedCount(id) || dst.CompletedCount(id) != src.CompletedCount(id) {
				t.Fatalf("sparse=%v: client %d tallies diverge", sparse, id)
			}
		}
		if dst.DropsByReason[device.DropDeadline] != 1 || dst.TechSuccess[opt.TechPrune50] != 1 ||
			dst.TechFailure[opt.TechQuant8] != 1 || dst.Discarded != 1 {
			t.Fatalf("sparse=%v: categorical tallies diverge: %+v", sparse, dst)
		}
		// The restored ledger must keep accumulating identically.
		exercise(src)
		exercise(dst)
		if aggregates(dst) != aggregates(src) {
			t.Fatalf("sparse=%v: post-restore accumulation diverges", sparse)
		}
	}
}

// TestLedgerRestoreRejectsMismatch pins the compat checks: typed, and the
// refused ledger is untouched.
func TestLedgerRestoreRejectsMismatch(t *testing.T) {
	src := NewLedger(10)
	exercise(src)
	blob := section(src)
	var ce *checkpoint.CompatError
	for name, dst := range map[string]*Ledger{"different population size": NewLedger(11), "sparse ledger": NewSparseLedger(10)} {
		before := section(dst)
		if err := dst.RestoreCheckpoint(decode(t, blob)); !errors.As(err, &ce) {
			t.Fatalf("restore of a dense 10-client state into a %s: got %v, want CompatError", name, err)
		}
		if !bytes.Equal(section(dst), before) {
			t.Fatalf("%s: rejected restore mutated the ledger", name)
		}
	}
	// Every strict prefix of a section is a latched format error.
	for n := 0; n < len(blob); n++ {
		d := checkpoint.NewDec(blob[:n])
		DecodeLedgerState(d)
		var fe *checkpoint.FormatError
		if err := d.Done(); !errors.As(err, &fe) {
			t.Fatalf("prefix %d/%d: got %v, want FormatError", n, len(blob), err)
		}
	}
}

// TestShardedCountsExportRestore covers the sparse container directly,
// including the deterministic export order.
func TestShardedCountsExportRestore(t *testing.T) {
	s := NewShardedCounts()
	for _, id := range []int{5, 1000003, 5, 64, 0, 977} {
		s.Inc(id)
	}
	exp := s.Export()
	r := NewShardedCounts()
	r.Restore(exp)
	if r.Distinct() != s.Distinct() {
		t.Fatalf("Distinct = %d, want %d", r.Distinct(), s.Distinct())
	}
	for _, id := range []int{5, 1000003, 64, 0, 977, 12345} {
		if r.Get(id) != s.Get(id) {
			t.Fatalf("Get(%d) = %d, want %d", id, r.Get(id), s.Get(id))
		}
	}
	exp2 := r.Export()
	if len(exp2) != len(exp) {
		t.Fatalf("re-export length %d, want %d", len(exp2), len(exp))
	}
	for i := range exp {
		if exp[i] != exp2[i] {
			t.Fatalf("export order unstable at %d: %v vs %v", i, exp[i], exp2[i])
		}
	}
}
