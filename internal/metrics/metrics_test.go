package metrics

import (
	"math"
	"testing"
	"testing/quick"

	"floatfl/internal/device"
	"floatfl/internal/opt"
)

func TestComputeAccuracyStats(t *testing.T) {
	accs := make([]float64, 100)
	for i := range accs {
		accs[i] = float64(i) / 100
	}
	s := ComputeAccuracyStats(accs)
	if s.Top10 <= s.Average || s.Average <= s.Bottom10 {
		t.Fatalf("ordering violated: %+v", s)
	}
	if math.Abs(s.Average-0.495) > 1e-9 {
		t.Fatalf("average = %v, want 0.495", s.Average)
	}
	// Top10 = mean of 0.90..0.99 = 0.945
	if math.Abs(s.Top10-0.945) > 1e-9 {
		t.Fatalf("top10 = %v, want 0.945", s.Top10)
	}
	if math.Abs(s.Bottom10-0.045) > 1e-9 {
		t.Fatalf("bottom10 = %v, want 0.045", s.Bottom10)
	}
}

func TestAccuracyStatsSmallInputs(t *testing.T) {
	if s := ComputeAccuracyStats(nil); s.Average != 0 {
		t.Fatal("empty input should produce zeros")
	}
	s := ComputeAccuracyStats([]float64{0.5})
	if s.Top10 != 0.5 || s.Bottom10 != 0.5 || s.Average != 0.5 {
		t.Fatalf("single client stats wrong: %+v", s)
	}
	s = ComputeAccuracyStats([]float64{0.2, 0.8})
	if s.Top10 != 0.8 || s.Bottom10 != 0.2 {
		t.Fatalf("two-client stats wrong: %+v", s)
	}
}

func outcome(completed bool, reason device.DropReason) device.Outcome {
	return device.Outcome{
		Completed: completed,
		Reason:    reason,
		Cost: device.Cost{
			ComputeSeconds: 3600, // 1 hour
			CommSeconds:    1800, // 0.5 hour
			MemoryBytes:    1e12, // 1 TB
		},
	}
}

func TestLedgerRecord(t *testing.T) {
	l := NewLedger(5)
	l.Record(0, opt.TechNone, outcome(true, device.DropNone))
	l.Record(1, opt.TechQuant8, outcome(false, device.DropDeadline))
	l.Record(1, opt.TechQuant8, outcome(true, device.DropNone))

	if l.TotalRounds != 3 || l.TotalDrops != 1 {
		t.Fatalf("rounds=%d drops=%d", l.TotalRounds, l.TotalDrops)
	}
	if l.Selected[1] != 2 || l.Completed[1] != 1 {
		t.Fatalf("client 1 selected=%d completed=%d", l.Selected[1], l.Completed[1])
	}
	if l.TechSuccess[opt.TechQuant8] != 1 || l.TechFailure[opt.TechQuant8] != 1 {
		t.Fatal("per-technique tallies wrong")
	}
	if l.DropsByReason[device.DropDeadline] != 1 {
		t.Fatal("dropout reason not recorded")
	}
	if math.Abs(l.Wasted.ComputeHours-1) > 1e-9 || math.Abs(l.Wasted.CommHours-0.5) > 1e-9 {
		t.Fatalf("wasted ledger wrong: %+v", l.Wasted)
	}
	if math.Abs(l.Useful.ComputeHours-2) > 1e-9 {
		t.Fatalf("useful ledger wrong: %+v", l.Useful)
	}
	if math.Abs(l.Wasted.MemoryTB-1) > 1e-9 {
		t.Fatalf("memory TB wrong: %+v", l.Wasted)
	}
	if got := l.DropRate(); math.Abs(got-1.0/3) > 1e-9 {
		t.Fatalf("DropRate = %v", got)
	}
}

func TestLedgerOutOfRangeClient(t *testing.T) {
	l := NewLedger(2)
	l.Record(99, opt.TechNone, outcome(true, device.DropNone)) // must not panic
	if l.TotalRounds != 1 {
		t.Fatal("out-of-range client round not counted globally")
	}
}

func TestNeverSelectedFraction(t *testing.T) {
	l := NewLedger(4)
	l.Record(0, opt.TechNone, outcome(true, device.DropNone))
	l.Record(1, opt.TechNone, outcome(false, device.DropDeadline))
	if got := l.NeverSelectedFraction(); got != 0.5 {
		t.Fatalf("NeverSelectedFraction = %v, want 0.5", got)
	}
	if got := l.NeverCompletedFraction(); got != 0.75 {
		t.Fatalf("NeverCompletedFraction = %v, want 0.75", got)
	}
}

func TestSelectionGini(t *testing.T) {
	even := NewLedger(4)
	for i := 0; i < 4; i++ {
		even.Record(i, opt.TechNone, outcome(true, device.DropNone))
	}
	if g := even.SelectionGini(); math.Abs(g) > 1e-9 {
		t.Fatalf("even selection gini = %v, want 0", g)
	}
	skew := NewLedger(4)
	for i := 0; i < 8; i++ {
		skew.Record(0, opt.TechNone, outcome(true, device.DropNone))
	}
	if g := skew.SelectionGini(); g < 0.7 {
		t.Fatalf("single-client selection gini = %v, want near (n-1)/n", g)
	}
	if NewLedger(0).SelectionGini() != 0 {
		t.Fatal("empty ledger gini should be 0")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	if Percentile(xs, 0) != 1 || Percentile(xs, 100) != 5 {
		t.Fatal("percentile endpoints wrong")
	}
	if got := Percentile(xs, 50); got != 3 {
		t.Fatalf("median = %v, want 3", got)
	}
	if got := Percentile(xs, 25); got != 2 {
		t.Fatalf("p25 = %v, want 2", got)
	}
	if Percentile(nil, 50) != 0 {
		t.Fatal("empty percentile should be 0")
	}
}

func TestMeanStd(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	if got := Mean(xs); got != 5 {
		t.Fatalf("Mean = %v, want 5", got)
	}
	if got := Std(xs); math.Abs(got-2) > 1e-9 {
		t.Fatalf("Std = %v, want 2", got)
	}
	if Mean(nil) != 0 || Std(nil) != 0 {
		t.Fatal("empty Mean/Std should be 0")
	}
}

func TestInefficiencyAdd(t *testing.T) {
	a := Inefficiency{ComputeHours: 1, CommHours: 2, MemoryTB: 3}
	a.Add(Inefficiency{ComputeHours: 0.5, CommHours: 0.5, MemoryTB: 0.5})
	if a.ComputeHours != 1.5 || a.CommHours != 2.5 || a.MemoryTB != 3.5 {
		t.Fatalf("Add = %+v", a)
	}
}

// Property: percentile is monotone in p and bounded by min/max.
func TestPercentileMonotoneQuick(t *testing.T) {
	f := func(raw []float64, p1Raw, p2Raw uint8) bool {
		if len(raw) == 0 {
			return true
		}
		for _, x := range raw {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				return true
			}
		}
		p1 := float64(p1Raw) / 255 * 100
		p2 := float64(p2Raw) / 255 * 100
		if p1 > p2 {
			p1, p2 = p2, p1
		}
		lo, hi := Percentile(raw, 0), Percentile(raw, 100)
		v1, v2 := Percentile(raw, p1), Percentile(raw, p2)
		return v1 <= v2+1e-12 && v1 >= lo-1e-12 && v2 <= hi+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: gini is in [0,1] for any non-negative counts.
func TestGiniBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		l := NewLedger(len(raw))
		for i, c := range raw {
			for j := 0; j < int(c)%20; j++ {
				l.Record(i, opt.TechNone, outcome(true, device.DropNone))
			}
		}
		g := l.SelectionGini()
		return g >= -1e-9 && g <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectionJainIndex(t *testing.T) {
	even := NewLedger(4)
	for i := 0; i < 4; i++ {
		even.Record(i, opt.TechNone, outcome(true, device.DropNone))
	}
	if j := even.SelectionJainIndex(); math.Abs(j-1) > 1e-9 {
		t.Fatalf("even participation Jain = %v, want 1", j)
	}
	skew := NewLedger(4)
	for i := 0; i < 8; i++ {
		skew.Record(0, opt.TechNone, outcome(true, device.DropNone))
	}
	if j := skew.SelectionJainIndex(); math.Abs(j-0.25) > 1e-9 {
		t.Fatalf("single-client Jain = %v, want 1/n = 0.25", j)
	}
	if NewLedger(0).SelectionJainIndex() != 0 {
		t.Fatal("empty ledger Jain should be 0")
	}
	if NewLedger(3).SelectionJainIndex() != 0 {
		t.Fatal("zero-selection ledger Jain should be 0")
	}
}

// Property: Jain's index lies in [1/n, 1] for any ledger with selections.
func TestJainBoundsQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		l := NewLedger(len(raw))
		any := false
		for i, c := range raw {
			for j := 0; j < int(c)%10; j++ {
				l.Record(i, opt.TechNone, outcome(true, device.DropNone))
				any = true
			}
		}
		j := l.SelectionJainIndex()
		if !any {
			return j == 0
		}
		return j >= 1/float64(len(raw))-1e-9 && j <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
