package trace

import (
	"math"
	"testing"
	"testing/quick"

	"floatfl/internal/rngstate"
)

func TestBandwidthPositiveAndDeterministic(t *testing.T) {
	for _, kind := range []NetKind{Net4G, Net5G} {
		a := NewBandwidthTrace(kind, 42)
		b := NewBandwidthTrace(kind, 42)
		for i := 0; i < 500; i++ {
			va, vb := a.At(i), b.At(i)
			if va <= 0 || math.IsNaN(va) {
				t.Fatalf("%v bandwidth at %d is %v", kind, i, va)
			}
			if va != vb {
				t.Fatalf("%v trace not deterministic at step %d", kind, i)
			}
		}
	}
}

func TestBandwidthMemoized(t *testing.T) {
	tr := NewBandwidthTrace(Net4G, 1)
	v1 := tr.At(10)
	_ = tr.At(500)
	if tr.At(10) != v1 {
		t.Fatal("At is not stable across later lookups")
	}
	if tr.At(-5) != tr.At(0) {
		t.Fatal("negative t should clamp to 0")
	}
}

func Test5GFasterThan4GOnAverage(t *testing.T) {
	mean := func(kind NetKind) float64 {
		var total float64
		const n = 2000
		tr := NewBandwidthTrace(kind, 7)
		for i := 0; i < n; i++ {
			total += tr.At(i)
		}
		return total / n
	}
	m4, m5 := mean(Net4G), mean(Net5G)
	if m5 < 3*m4 {
		t.Fatalf("5G mean %v should be far above 4G mean %v", m5, m4)
	}
}

func TestBandwidthVariability(t *testing.T) {
	// The Markov modulation must actually produce regime changes: the
	// coefficient of variation should be substantial.
	tr := NewBandwidthTrace(Net5G, 3)
	var sum, sumSq float64
	const n = 3000
	for i := 0; i < n; i++ {
		v := tr.At(i)
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	std := math.Sqrt(sumSq/n - mean*mean)
	if std/mean < 0.3 {
		t.Fatalf("5G trace too smooth: cv = %v", std/mean)
	}
}

func TestNetKindStringsAndCaps(t *testing.T) {
	if Net4G.String() != "4G" || Net5G.String() != "5G" {
		t.Fatal("NetKind String broken")
	}
	if NetKind(9).String() == "" {
		t.Fatal("unknown NetKind should still produce a string")
	}
}

func TestComputePopulationHeterogeneous(t *testing.T) {
	rng := rngstate.New(5)
	counts := map[DeviceClass]int{}
	var minG, maxG float64 = math.Inf(1), 0
	for i := 0; i < 3000; i++ {
		p := SampleComputeProfile(rng)
		if p.GFLOPS <= 0 || p.MemoryMB <= 0 || p.EnergyCapacity <= 0 {
			t.Fatalf("non-positive compute profile: %+v", p)
		}
		counts[p.Class]++
		if p.GFLOPS < minG {
			minG = p.GFLOPS
		}
		if p.GFLOPS > maxG {
			maxG = p.GFLOPS
		}
	}
	for _, c := range []DeviceClass{DeviceLowEnd, DeviceMidRange, DeviceHighEnd, DeviceEdge} {
		if counts[c] == 0 {
			t.Fatalf("device class %v never sampled", c)
		}
	}
	if maxG/minG < 10 {
		t.Fatalf("population not heterogeneous enough: %v..%v GFLOPS", minG, maxG)
	}
	if counts[DeviceLowEnd] < counts[DeviceEdge] {
		t.Fatal("low-end devices should dominate edge devices in the mix")
	}
}

func TestDeviceClassString(t *testing.T) {
	names := map[DeviceClass]string{
		DeviceLowEnd: "low-end", DeviceMidRange: "mid-range",
		DeviceHighEnd: "high-end", DeviceEdge: "edge", DeviceClass(99): "unknown",
	}
	for c, want := range names {
		if c.String() != want {
			t.Fatalf("DeviceClass(%d).String() = %q, want %q", c, c.String(), want)
		}
	}
}

func TestAvailabilityWindowsVary(t *testing.T) {
	a := NewAvailabilityTrace(11)
	// Collect ON-window lengths; they must vary (not a fixed linear window).
	var windows []int
	cur := 0
	for i := 0; i < 3000; i++ {
		if a.Available(i) {
			cur++
		} else if cur > 0 {
			windows = append(windows, cur)
			cur = 0
		}
	}
	if len(windows) < 10 {
		t.Fatalf("too few availability windows: %d", len(windows))
	}
	first := windows[0]
	varies := false
	for _, w := range windows {
		if w != first {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("availability windows are all identical — fixed-window assumption would hold")
	}
}

func TestAvailabilityBatteryDrain(t *testing.T) {
	a := NewAvailabilityTrace(2)
	level0 := a.BatteryAt(0)
	a.RecordUseAmount(0.5)
	level1 := a.BatteryAt(1)
	if level1 >= level0 {
		t.Fatalf("battery did not drain after use: %v -> %v", level0, level1)
	}
	// With no use, battery should recover over time.
	for i := 2; i < 40; i++ {
		a.BatteryAt(i)
	}
	if a.BatteryAt(40) <= level1 {
		t.Fatalf("battery did not recharge while idle: %v -> %v", level1, a.BatteryAt(40))
	}
}

func TestAvailabilityBatteryBounds(t *testing.T) {
	a := NewAvailabilityTrace(3)
	for i := 0; i < 200; i++ {
		a.RecordUseAmount(0.9)
		lvl := a.BatteryAt(i)
		if lvl < 0 || lvl > 1 {
			t.Fatalf("battery out of bounds: %v", lvl)
		}
	}
}

func TestLowBatteryForcesUnavailable(t *testing.T) {
	a := NewAvailabilityTrace(4)
	a.RecordUseAmount(1)
	// After a full drain the client must be unavailable regardless of the
	// ON/OFF process.
	if a.BatteryAt(1) > 0.15 {
		t.Skip("drain did not push battery below low water in one step")
	}
	if a.Available(1) {
		t.Fatal("client available with battery below low-water mark")
	}
}

func TestInterferenceScenarios(t *testing.T) {
	for _, s := range []Scenario{ScenarioNone, ScenarioStatic, ScenarioDynamic} {
		in := NewInterference(s, 9)
		for i := 0; i < 300; i++ {
			cpu, mem, net := in.At(i)
			if cpu < 0 || cpu > cpuCap+1e-9 {
				t.Fatalf("%v cpu availability out of range: %v", s, cpu)
			}
			if mem < 0 || mem > cpuCap+1e-9 {
				t.Fatalf("%v mem availability out of range: %v", s, mem)
			}
			if net < 0 || net > 1+1e-9 {
				t.Fatalf("%v net availability out of range: %v", s, net)
			}
		}
	}
}

func TestInterferenceNoneIsFull(t *testing.T) {
	in := NewInterference(ScenarioNone, 1)
	cpu, mem, net := in.At(5)
	if cpu != cpuCap || mem != cpuCap || net != 1 {
		t.Fatalf("no-interference should give full availability, got %v %v %v", cpu, mem, net)
	}
}

func TestInterferenceStaticIsConstant(t *testing.T) {
	in := NewInterference(ScenarioStatic, 2)
	c0, m0, n0 := in.At(0)
	for i := 1; i < 100; i++ {
		c, m, n := in.At(i)
		if c != c0 || m != m0 || n != n0 {
			t.Fatal("static interference should be constant over time")
		}
	}
	if c0 >= cpuCap || n0 >= 1 {
		t.Fatalf("static interference should reserve some resources, got cpu=%v net=%v", c0, n0)
	}
}

func TestInterferenceDynamicVaries(t *testing.T) {
	in := NewInterference(ScenarioDynamic, 3)
	c0, _, _ := in.At(0)
	varies := false
	for i := 1; i < 50; i++ {
		c, _, _ := in.At(i)
		if c != c0 {
			varies = true
			break
		}
	}
	if !varies {
		t.Fatal("dynamic interference never varied")
	}
}

func TestParseScenario(t *testing.T) {
	cases := map[string]Scenario{
		"none": ScenarioNone, "no-interference": ScenarioNone,
		"static": ScenarioStatic, "static-interference": ScenarioStatic,
		"dynamic": ScenarioDynamic, "dynamic-interference": ScenarioDynamic,
	}
	for s, want := range cases {
		got, err := ParseScenario(s)
		if err != nil || got != want {
			t.Fatalf("ParseScenario(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseScenario("chaotic"); err == nil {
		t.Fatal("ParseScenario accepted unknown scenario")
	}
	if ScenarioDynamic.String() != "dynamic-interference" {
		t.Fatal("Scenario String broken")
	}
	if Scenario(42).String() == "" {
		t.Fatal("unknown Scenario should still render")
	}
}

// Property: interference availability always lies in the legal box.
func TestInterferencePropertyQuick(t *testing.T) {
	f := func(seed int64, sRaw, tRaw uint8) bool {
		s := Scenario(int(sRaw) % 3)
		in := NewInterference(s, seed)
		cpu, mem, net := in.At(int(tRaw))
		return cpu >= 0 && cpu <= cpuCap+1e-9 &&
			mem >= 0 && mem <= cpuCap+1e-9 &&
			net >= 0 && net <= 1+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestAvailabilityFractionStationary(t *testing.T) {
	// Over a long horizon with no drains the trace is available a sane
	// fraction of the time.
	a := NewAvailabilityTrace(22)
	on := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if a.Available(i) {
			on++
		}
	}
	frac := float64(on) / n
	if frac < 0.4 || frac > 0.98 {
		t.Fatalf("stationary availability fraction out of range: %.2f", frac)
	}
}
