// Package metrics implements the paper's evaluation metrics: Top-10% /
// average / Bottom-10% client accuracy, dropout accounting by cause,
// per-technique success/failure tallies, participation-bias summaries, and
// the resource-inefficiency ledger (compute hours, communication hours, and
// memory terabytes wasted by dropped clients — Section 6.1 "Metrics").
package metrics

import (
	"math"
	"sort"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

// AccuracyStats summarizes the per-client accuracy distribution.
type AccuracyStats struct {
	Top10    float64 // mean accuracy of the best 10% of clients
	Average  float64
	Bottom10 float64 // mean accuracy of the worst 10% of clients
}

// ComputeAccuracyStats computes Top10/Average/Bottom10 over per-client
// accuracies. With fewer than 10 clients, Top10/Bottom10 degenerate to the
// single best/worst client.
func ComputeAccuracyStats(accs []float64) AccuracyStats {
	if len(accs) == 0 {
		return AccuracyStats{}
	}
	sorted := append([]float64(nil), accs...)
	sort.Float64s(sorted)
	k := len(sorted) / 10
	if k == 0 {
		k = 1
	}
	mean := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	return AccuracyStats{
		Top10:    mean(sorted[len(sorted)-k:]),
		Average:  mean(sorted),
		Bottom10: mean(sorted[:k]),
	}
}

// Inefficiency is the paper's resource-waste triple: time spent computing
// and communicating for rounds whose results were discarded, and the
// memory those rounds held.
type Inefficiency struct {
	ComputeHours float64
	CommHours    float64
	MemoryTB     float64
}

// Add accumulates another inefficiency triple.
func (in *Inefficiency) Add(o Inefficiency) {
	in.ComputeHours += o.ComputeHours
	in.CommHours += o.CommHours
	in.MemoryTB += o.MemoryTB
}

// Ledger accumulates everything a training run needs to reproduce the
// paper's figures: per-client participation, per-technique outcomes,
// dropout causes, and wasted-versus-useful resource totals.
type Ledger struct {
	clients int

	Selected  []int // per-client selection count (dense mode; nil in sparse mode)
	Completed []int // per-client completion count (dense mode; nil in sparse mode)

	// Sparse mode (NewSparseLedger): participation tallies in sharded
	// sorted structures costing O(participants) memory — the ledger a
	// million-client lazy population uses. All aggregate methods work in
	// either mode; only the dense Selected/Completed slices are absent.
	selectedS  *ShardedCounts
	completedS *ShardedCounts

	DropsByReason map[device.DropReason]int
	TotalDrops    int
	TotalRounds   int // client-rounds executed

	// TechSuccess / TechFailure count outcomes per applied technique
	// (Fig 6 / Fig 11 right).
	TechSuccess map[opt.Technique]int
	TechFailure map[opt.Technique]int

	// Discarded counts client-rounds whose results were thrown away
	// (FedBuff over-selection and staleness).
	Discarded int

	Wasted Inefficiency
	Useful Inefficiency

	// WallClockSeconds accumulates the duration of each round (the
	// slowest completing client in synchronous FL).
	WallClockSeconds float64
}

// NewLedger creates a dense ledger for a population of the given size.
func NewLedger(clients int) *Ledger {
	return &Ledger{
		clients:       clients,
		Selected:      make([]int, clients),
		Completed:     make([]int, clients),
		DropsByReason: make(map[device.DropReason]int),
		TechSuccess:   make(map[opt.Technique]int),
		TechFailure:   make(map[opt.Technique]int),
	}
}

// NewSparseLedger creates a ledger whose per-client tallies cost
// O(participants) memory — for lazy populations where allocating a slice
// per million clients would defeat the bounded-working-set contract.
func NewSparseLedger(clients int) *Ledger {
	return &Ledger{
		clients:       clients,
		selectedS:     NewShardedCounts(),
		completedS:    NewShardedCounts(),
		DropsByReason: make(map[device.DropReason]int),
		TechSuccess:   make(map[opt.Technique]int),
		TechFailure:   make(map[opt.Technique]int),
	}
}

// Sparse reports whether the ledger tallies participation sparsely.
func (l *Ledger) Sparse() bool { return l.selectedS != nil }

// SelectedCount returns client id's selection tally in either mode.
func (l *Ledger) SelectedCount(id int) int {
	if l.Sparse() {
		return l.selectedS.Get(id)
	}
	if id >= 0 && id < len(l.Selected) {
		return l.Selected[id]
	}
	return 0
}

// CompletedCount returns client id's completion tally in either mode.
func (l *Ledger) CompletedCount(id int) int {
	if l.Sparse() {
		return l.completedS.Get(id)
	}
	if id >= 0 && id < len(l.Completed) {
		return l.Completed[id]
	}
	return 0
}

// Record ingests one client-round outcome.
func (l *Ledger) Record(clientID int, tech opt.Technique, out device.Outcome) {
	if clientID >= 0 && clientID < l.clients {
		if l.Sparse() {
			l.selectedS.Inc(clientID)
			if out.Completed {
				l.completedS.Inc(clientID)
			}
		} else {
			l.Selected[clientID]++
			if out.Completed {
				l.Completed[clientID]++
			}
		}
	}
	l.TotalRounds++
	in := Inefficiency{
		ComputeHours: out.Cost.ComputeSeconds / 3600,
		CommHours:    out.Cost.CommSeconds / 3600,
		MemoryTB:     out.Cost.MemoryBytes / 1e12,
	}
	if out.Completed {
		l.TechSuccess[tech]++
		l.Useful.Add(in)
	} else {
		l.TotalDrops++
		l.DropsByReason[out.Reason]++
		l.TechFailure[tech]++
		l.Wasted.Add(in)
	}
}

// RecordDiscarded ingests a client-round whose result was thrown away even
// though it may have completed — FedBuff's in-flight tasks at shutdown and
// over-stale updates. The resources count as wasted; the client-round
// counts toward participation but not toward dropouts.
func (l *Ledger) RecordDiscarded(clientID int, tech opt.Technique, out device.Outcome) {
	if clientID >= 0 && clientID < l.clients {
		if l.Sparse() {
			l.selectedS.Inc(clientID)
		} else {
			l.Selected[clientID]++
		}
	}
	l.TotalRounds++
	l.Discarded++
	l.Wasted.Add(Inefficiency{
		ComputeHours: out.Cost.ComputeSeconds / 3600,
		CommHours:    out.Cost.CommSeconds / 3600,
		MemoryTB:     out.Cost.MemoryBytes / 1e12,
	})
}

// NeverSelectedFraction returns the share of the population that was never
// chosen — the paper's selection-bias measure (Fig 2a discussion).
func (l *Ledger) NeverSelectedFraction() float64 {
	if l.clients == 0 {
		return 0
	}
	if l.Sparse() {
		return float64(l.clients-l.selectedS.Distinct()) / float64(l.clients)
	}
	n := 0
	for _, c := range l.Selected {
		if c == 0 {
			n++
		}
	}
	return float64(n) / float64(l.clients)
}

// NeverCompletedFraction returns the share of the population that never
// successfully contributed an update.
func (l *Ledger) NeverCompletedFraction() float64 {
	if l.clients == 0 {
		return 0
	}
	if l.Sparse() {
		return float64(l.clients-l.completedS.Distinct()) / float64(l.clients)
	}
	n := 0
	for _, c := range l.Completed {
		if c == 0 {
			n++
		}
	}
	return float64(n) / float64(l.clients)
}

// SelectionGini returns the Gini coefficient of selection counts: 0 means
// perfectly even participation, 1 means a single client absorbed all
// selections.
func (l *Ledger) SelectionGini() float64 {
	if l.Sparse() {
		return giniWithZeros(l.selectedS.Counts(), l.clients-l.selectedS.Distinct())
	}
	return giniWithZeros(l.Selected, 0)
}

// giniWithZeros computes the Gini coefficient over nonzero ∪ {0}^zeros
// without materializing the zero prefix — sparse ledgers pass only the
// participants plus the count of never-selected clients.
func giniWithZeros(nonzero []int, zeros int) float64 {
	n := len(nonzero) + zeros
	if n == 0 {
		return 0
	}
	sorted := append([]int(nil), nonzero...)
	sort.Ints(sorted)
	var cum, total float64
	for i, c := range sorted {
		// Zeros sort first and contribute nothing to either sum; the
		// nonzero element at local index i has global rank zeros+i+1.
		cum += float64(zeros+i+1) * float64(c)
		total += float64(c)
	}
	if total == 0 {
		return 0
	}
	return (2*cum)/(float64(n)*total) - float64(n+1)/float64(n)
}

// SelectionJainIndex returns Jain's fairness index over selection counts:
// 1 means perfectly even participation, 1/n means one client absorbed
// everything. It complements the Gini coefficient with the fairness
// measure most FL selection papers report.
func (l *Ledger) SelectionJainIndex() float64 {
	if l.Sparse() {
		// Counts() iterates in a fixed shard-major sorted order, so the
		// float accumulation below is byte-reproducible.
		return jainWithZeros(l.selectedS.Counts(), l.clients-l.selectedS.Distinct())
	}
	return jainWithZeros(l.Selected, 0)
}

func jainWithZeros(nonzero []int, zeros int) float64 {
	n := len(nonzero) + zeros
	if n == 0 {
		return 0
	}
	var sum, sumSq float64
	for _, c := range nonzero {
		x := float64(c)
		sum += x
		sumSq += x * x
	}
	if sumSq == 0 {
		return 0
	}
	return sum * sum / (float64(n) * sumSq)
}

// DropRate returns the fraction of executed client-rounds that dropped.
func (l *Ledger) DropRate() float64 {
	if l.TotalRounds == 0 {
		return 0
	}
	return float64(l.TotalDrops) / float64(l.TotalRounds)
}

// SuccessRate returns 1 - DropRate.
func (l *Ledger) SuccessRate() float64 { return 1 - l.DropRate() }

// TotalInefficiency returns the wasted resource triple (the figures'
// "compute/communication/memory inefficiency" bars).
func (l *Ledger) TotalInefficiency() Inefficiency { return l.Wasted }

// Percentile returns the p-th percentile (0..100) of the samples using
// linear interpolation; it is used by trace-distribution figures.
func Percentile(samples []float64, p float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	sorted := append([]float64(nil), samples...)
	sort.Float64s(sorted)
	if p <= 0 {
		return sorted[0]
	}
	if p >= 100 {
		return sorted[len(sorted)-1]
	}
	pos := p / 100 * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	if lo+1 >= len(sorted) {
		return sorted[lo]
	}
	return sorted[lo]*(1-frac) + sorted[lo+1]*frac
}

// Mean returns the arithmetic mean of the samples (0 for empty input).
func Mean(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	var s float64
	for _, x := range samples {
		s += x
	}
	return s / float64(len(samples))
}

// Std returns the population standard deviation of the samples.
func Std(samples []float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	m := Mean(samples)
	var s float64
	for _, x := range samples {
		d := x - m
		s += float64(d * d)
	}
	return math.Sqrt(s / float64(len(samples)))
}
