package metrics

import (
	"fmt"
	"sort"
	"strconv"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// IDCount is one (client ID, count) pair of a sparse tally's serialized
// form.
type IDCount struct {
	ID int
	N  int
}

// Export returns the nonzero counts as (id, count) pairs in the same
// deterministic shard-major, sorted-within-shard order Counts uses, so
// serialized ledgers are byte-stable across processes.
func (s *ShardedCounts) Export() []IDCount {
	out := make([]IDCount, 0, s.n)
	ids := make([]int, 0, 64)
	for _, m := range s.shards {
		ids = ids[:0]
		for id := range m {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		for _, id := range ids {
			out = append(out, IDCount{ID: id, N: m[id]})
		}
	}
	return out
}

// Restore replaces the counter's contents with the exported pairs.
// Non-positive counts are dropped (Inc can never have produced them).
func (s *ShardedCounts) Restore(items []IDCount) {
	for i := range s.shards {
		s.shards[i] = make(map[int]int)
	}
	s.n = 0
	for _, it := range items {
		if it.N <= 0 {
			continue
		}
		m := s.shards[uint(it.ID)%countShards]
		if _, ok := m[it.ID]; !ok {
			s.n++
		}
		m[it.ID] = it.N
	}
}

// LedgerState is a ledger's decoded checkpoint section: what
// DecodeLedgerState read, held until RestoreCheckpoint has validated it
// against the live ledger.
type LedgerState struct {
	Clients         int
	Sparse          bool
	Selected        []int
	Completed       []int
	SelectedSparse  []IDCount
	CompletedSparse []IDCount
	DropsByReason   map[device.DropReason]int
	TotalDrops      int
	TotalRounds     int
	TechSuccess     map[opt.Technique]int
	TechFailure     map[opt.Technique]int
	Discarded       int
	Wasted          Inefficiency
	Useful          Inefficiency
	WallClock       float64
}

// AppendCheckpoint writes the ledger as one checkpoint section, straight
// from the live tallies: population size, the sparse flag, the selected
// and completed tallies (dense: two counted int runs; sparse: two counted
// runs of (id, count) in Export order), then the categorical tallies in
// key order, the scalar totals and the two inefficiency triples.
func (l *Ledger) AppendCheckpoint(e *checkpoint.Enc) {
	e.Int(l.clients)
	e.Bool(l.Sparse())
	if l.Sparse() {
		for _, s := range []*ShardedCounts{l.selectedS, l.completedS} {
			items := s.Export()
			e.Uvarint(uint64(len(items)))
			for _, it := range items {
				e.Int(it.ID)
				e.Int(it.N)
			}
		}
	} else {
		e.Ints(l.Selected)
		e.Ints(l.Completed)
	}
	e.IntsByID(intKeyed[device.DropReason, int](l.DropsByReason))
	e.Int(l.TotalDrops)
	e.Int(l.TotalRounds)
	e.IntsByID(intKeyed[opt.Technique, int](l.TechSuccess))
	e.IntsByID(intKeyed[opt.Technique, int](l.TechFailure))
	e.Int(l.Discarded)
	for _, in := range []Inefficiency{l.Wasted, l.Useful} {
		e.Float64(in.ComputeHours)
		e.Float64(in.CommHours)
		e.Float64(in.MemoryTB)
	}
	e.Float64(l.WallClockSeconds)
}

// DecodeLedgerState reads what AppendCheckpoint wrote; a malformed section
// latches d's error.
func DecodeLedgerState(d *checkpoint.Dec) *LedgerState {
	st := &LedgerState{Clients: d.Int(), Sparse: d.Bool()}
	if st.Sparse {
		for _, dst := range []*[]IDCount{&st.SelectedSparse, &st.CompletedSparse} {
			items := make([]IDCount, d.Count(2))
			for i := range items {
				items[i] = IDCount{ID: d.Int(), N: d.Int()}
			}
			*dst = items
		}
	} else {
		st.Selected, st.Completed = d.Ints(), d.Ints()
	}
	st.DropsByReason = intKeyed[int, device.DropReason](d.IntsByID())
	st.TotalDrops, st.TotalRounds = d.Int(), d.Int()
	st.TechSuccess = intKeyed[int, opt.Technique](d.IntsByID())
	st.TechFailure = intKeyed[int, opt.Technique](d.IntsByID())
	st.Discarded = d.Int()
	for _, in := range []*Inefficiency{&st.Wasted, &st.Useful} {
		*in = Inefficiency{ComputeHours: d.Float64(), CommHours: d.Float64(), MemoryTB: d.Float64()}
	}
	st.WallClock = d.Float64()
	return st
}

// intKeyed re-keys an enum tally map to or from the plain int keys the
// section encoding uses.
func intKeyed[From, To ~int](m map[From]int) map[To]int {
	out := make(map[To]int, len(m))
	for k, v := range m {
		out[To(k)] = v
	}
	return out
}

// RestoreCheckpoint replaces the ledger's state with a decoded one, which
// the ledger takes ownership of. The ledger must have been constructed for
// the same population size and sparseness; on error (a
// *checkpoint.CompatError) nothing is modified.
func (l *Ledger) RestoreCheckpoint(st *LedgerState) error {
	if st.Clients != l.clients {
		return &checkpoint.CompatError{Field: "ledger clients",
			Got: strconv.Itoa(st.Clients), Want: strconv.Itoa(l.clients)}
	}
	if st.Sparse != l.Sparse() {
		return &checkpoint.CompatError{Field: "ledger sparse",
			Got: strconv.FormatBool(st.Sparse), Want: strconv.FormatBool(l.Sparse())}
	}
	if !st.Sparse && (len(st.Selected) != l.clients || len(st.Completed) != l.clients) {
		return &checkpoint.CompatError{Field: "dense ledger tallies",
			Got:  fmt.Sprintf("%d/%d", len(st.Selected), len(st.Completed)),
			Want: strconv.Itoa(l.clients)}
	}
	if st.Sparse {
		l.selectedS.Restore(st.SelectedSparse)
		l.completedS.Restore(st.CompletedSparse)
	} else {
		copy(l.Selected, st.Selected)
		copy(l.Completed, st.Completed)
	}
	l.DropsByReason = st.DropsByReason
	l.TechSuccess = st.TechSuccess
	l.TechFailure = st.TechFailure
	l.TotalDrops = st.TotalDrops
	l.TotalRounds = st.TotalRounds
	l.Discarded = st.Discarded
	l.Wasted = st.Wasted
	l.Useful = st.Useful
	l.WallClockSeconds = st.WallClock
	return nil
}
