package metrics

import (
	"math/rand"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// TestSparseLedgerMatchesDense feeds identical outcome streams into a
// dense and a sparse ledger and requires every aggregate to agree
// bit-for-bit — sparse mode is a representation change, not a semantic
// one.
func TestSparseLedgerMatchesDense(t *testing.T) {
	const clients = 500
	dense := NewLedger(clients)
	sparse := NewSparseLedger(clients)

	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 2000; i++ {
		id := rng.Intn(clients / 3) // skewed participation
		out := device.Outcome{
			Completed: rng.Float64() < 0.7,
			Cost:      device.Cost{ComputeSeconds: rng.Float64() * 100, CommSeconds: rng.Float64() * 10},
		}
		if !out.Completed {
			out.Reason = device.DropDeadline
		}
		if rng.Float64() < 0.1 {
			dense.RecordDiscarded(id, opt.TechNone, out)
			sparse.RecordDiscarded(id, opt.TechNone, out)
		} else {
			dense.Record(id, opt.TechNone, out)
			sparse.Record(id, opt.TechNone, out)
		}
	}

	type agg struct {
		neverSel, neverComp, gini, jain, dropRate float64
		totalRounds, totalDrops, discarded        int
	}
	of := func(l *Ledger) agg {
		return agg{
			neverSel:    l.NeverSelectedFraction(),
			neverComp:   l.NeverCompletedFraction(),
			gini:        l.SelectionGini(),
			jain:        l.SelectionJainIndex(),
			dropRate:    l.DropRate(),
			totalRounds: l.TotalRounds,
			totalDrops:  l.TotalDrops,
			discarded:   l.Discarded,
		}
	}
	d, s := of(dense), of(sparse)
	if d != s {
		t.Fatalf("sparse aggregates deviate from dense:\ndense  %+v\nsparse %+v", d, s)
	}
	for id := 0; id < clients; id++ {
		if dense.Selected[id] != sparse.selectedS.Get(id) {
			t.Fatalf("client %d: selected %d dense vs %d sparse", id, dense.Selected[id], sparse.selectedS.Get(id))
		}
		if dense.Completed[id] != sparse.completedS.Get(id) {
			t.Fatalf("client %d: completed %d dense vs %d sparse", id, dense.Completed[id], sparse.completedS.Get(id))
		}
	}
}

// TestShardedCountsDeterministicOrder pins the fixed iteration order the
// float-order-sensitive aggregates (Jain) rely on.
func TestShardedCountsDeterministicOrder(t *testing.T) {
	build := func(order []int) []int {
		s := NewShardedCounts()
		for _, id := range order {
			s.Inc(id)
		}
		return s.Counts()
	}
	a := build([]int{700, 3, 64, 3, 128, 9001, 64, 700})
	b := build([]int{64, 9001, 700, 64, 3, 128, 700, 3})
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("position %d: %d vs %d (insertion order leaked into iteration order)", i, a[i], b[i])
		}
	}
}

// TestSparseLedgerEmpty guards the degenerate aggregates.
func TestSparseLedgerEmpty(t *testing.T) {
	l := NewSparseLedger(0)
	if l.NeverSelectedFraction() != 0 || l.SelectionGini() != 0 || l.SelectionJainIndex() != 0 {
		t.Fatal("empty sparse ledger aggregates must be zero")
	}
	l2 := NewSparseLedger(10)
	if got := l2.NeverSelectedFraction(); got != 1 {
		t.Fatalf("untouched ledger never-selected %v, want 1", got)
	}
}
