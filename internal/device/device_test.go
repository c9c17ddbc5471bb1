package device

import (
	"math"
	"testing"

	"floatfl/internal/opt"
	"floatfl/internal/trace"
)

func testWork() WorkSpec {
	// Roughly a ResNet-34 round: 22 GFLOPs/sample, 21.8M params, 60
	// samples, 5 epochs.
	return WorkSpec{RefFLOPsPerSample: 22_000_000_000, RefParams: 21_800_000, Samples: 60, Epochs: 5}
}

func testPopulation(t *testing.T, n int, s trace.Scenario) []*Client {
	t.Helper()
	pop, err := NewPopulation(PopulationConfig{Clients: n, Scenario: s, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

func TestNewPopulation(t *testing.T) {
	pop := testPopulation(t, 50, trace.ScenarioDynamic)
	if len(pop) != 50 {
		t.Fatalf("population size %d, want 50", len(pop))
	}
	seen4, seen5 := false, false
	for i, c := range pop {
		if c.ID != i {
			t.Fatalf("client %d has ID %d", i, c.ID)
		}
		if c.Compute.GFLOPS <= 0 {
			t.Fatalf("client %d has no compute", i)
		}
		switch c.NetKind {
		case trace.Net4G:
			seen4 = true
		case trace.Net5G:
			seen5 = true
		}
	}
	if !seen4 || !seen5 {
		t.Fatal("population should mix 4G and 5G clients")
	}
	if _, err := NewPopulation(PopulationConfig{Clients: 0}); err == nil {
		t.Fatal("NewPopulation accepted zero clients")
	}
}

func TestPopulationDeterministic(t *testing.T) {
	a := testPopulation(t, 10, trace.ScenarioDynamic)
	b := testPopulation(t, 10, trace.ScenarioDynamic)
	for i := range a {
		if a[i].Compute.GFLOPS != b[i].Compute.GFLOPS || a[i].NetKind != b[i].NetKind {
			t.Fatal("populations differ under identical seeds")
		}
		ra, rb := a[i].ResourcesAt(3), b[i].ResourcesAt(3)
		if ra != rb {
			t.Fatal("resource streams differ under identical seeds")
		}
	}
}

func TestResourcesAtRanges(t *testing.T) {
	pop := testPopulation(t, 20, trace.ScenarioDynamic)
	for _, c := range pop {
		for step := 0; step < 50; step++ {
			r := c.ResourcesAt(step)
			if r.CPUFrac < 0 || r.CPUFrac > 1 || r.MemFrac < 0 || r.MemFrac > 1 ||
				r.NetFrac < 0 || r.NetFrac > 1 {
				t.Fatalf("resource fractions out of range: %+v", r)
			}
			if r.BandwidthMbps <= 0 {
				t.Fatalf("non-positive bandwidth: %+v", r)
			}
			if r.Battery < 0 || r.Battery > 1 {
				t.Fatalf("battery out of range: %+v", r)
			}
		}
	}
}

func TestWorkSpecValidate(t *testing.T) {
	if err := testWork().Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testWork()
	bad.Samples = 0
	if err := bad.Validate(); err == nil {
		t.Fatal("Validate accepted zero samples")
	}
}

func fullResources() Resources {
	return Resources{Available: true, CPUFrac: 0.8, MemFrac: 0.8, NetFrac: 1, BandwidthMbps: 50, Battery: 1}
}

func TestEstimateBasics(t *testing.T) {
	w := testWork()
	c := estimate(w, fullResources(), opt.TechNone.Effects(), 20)
	if c.ComputeSeconds <= 0 || c.CommSeconds <= 0 || c.MemoryBytes <= 0 {
		t.Fatalf("estimate produced non-positive costs: %+v", c)
	}
	if c.TotalSeconds != c.ComputeSeconds+c.CommSeconds {
		t.Fatal("TotalSeconds must be compute + comm")
	}
	if c.DownloadBytes != float64(w.RefParams)*bytesPerParam {
		t.Fatal("download must be the full model")
	}
	if c.UploadBytes != c.DownloadBytes {
		t.Fatal("unoptimized upload must equal the full model")
	}
}

func TestEstimateFasterDeviceIsFaster(t *testing.T) {
	w := testWork()
	slow := estimate(w, fullResources(), opt.TechNone.Effects(), 4)
	fast := estimate(w, fullResources(), opt.TechNone.Effects(), 120)
	if fast.ComputeSeconds >= slow.ComputeSeconds {
		t.Fatal("faster device must compute faster")
	}
}

func TestEstimateInterferenceSlowsDown(t *testing.T) {
	w := testWork()
	full := fullResources()
	squeezed := full
	squeezed.CPUFrac, squeezed.NetFrac = 0.1, 0.1
	a := estimate(w, full, opt.TechNone.Effects(), 20)
	b := estimate(w, squeezed, opt.TechNone.Effects(), 20)
	if b.ComputeSeconds <= a.ComputeSeconds || b.CommSeconds <= a.CommSeconds {
		t.Fatal("interference must slow both compute and comm")
	}
}

func TestEstimateTechniqueEffects(t *testing.T) {
	w := testWork()
	r := fullResources()
	base := estimate(w, r, opt.TechNone.Effects(), 20)

	q8 := estimate(w, r, opt.TechQuant8.Effects(), 20)
	if q8.UploadBytes >= base.UploadBytes/3 {
		t.Fatalf("quant8 upload %v should be ~25%% of base %v", q8.UploadBytes, base.UploadBytes)
	}
	if q8.ComputeSeconds < base.ComputeSeconds {
		t.Fatal("quant8 must not reduce compute time")
	}

	p75 := estimate(w, r, opt.TechPrune75.Effects(), 20)
	if p75.ComputeSeconds >= base.ComputeSeconds || p75.UploadBytes >= base.UploadBytes {
		t.Fatal("prune75 must reduce compute and upload")
	}

	t75 := estimate(w, r, opt.TechPartial75.Effects(), 20)
	if t75.ComputeSeconds >= p75.ComputeSeconds {
		t.Fatal("partial75 should save more compute than prune75")
	}
	if t75.UploadBytes <= p75.UploadBytes {
		t.Fatal("partial75 should save less communication than prune75")
	}
}

func TestExecuteSuccess(t *testing.T) {
	pop := testPopulation(t, 30, trace.ScenarioNone)
	w := testWork()
	succeeded := false
	for _, c := range pop {
		out, err := Execute(c, 0, w, opt.TechNone, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		if out.Completed {
			succeeded = true
			if out.Reason != DropNone {
				t.Fatalf("completed with reason %v", out.Reason)
			}
			if out.DeadlineDiff != 0 {
				t.Fatal("completed round must have zero deadline diff")
			}
			if out.Cost.TotalSeconds <= 0 {
				t.Fatal("completed round must have positive cost")
			}
		}
	}
	if !succeeded {
		t.Fatal("no client completed with an enormous deadline")
	}
}

func TestExecuteDeadlineDropout(t *testing.T) {
	pop := testPopulation(t, 30, trace.ScenarioNone)
	w := testWork()
	dropped := false
	for _, c := range pop {
		out, err := Execute(c, 0, w, opt.TechNone, 0.5) // half a second: impossible
		if err != nil {
			t.Fatal(err)
		}
		if out.Completed {
			t.Fatal("no client can finish a ResNet-34 round in half a second")
		}
		if out.Reason == DropDeadline {
			dropped = true
			if out.DeadlineDiff <= 0 {
				t.Fatal("deadline dropout must report positive deadline diff")
			}
			if out.Cost.TotalSeconds > 0.5+1e-9 {
				t.Fatal("deadline dropout cannot consume more than the deadline")
			}
			if out.Cost.UploadBytes >= float64(w.RefParams)*bytesPerParam {
				t.Fatal("deadline dropout should waste only partial upload")
			}
		}
	}
	if !dropped {
		t.Fatal("expected at least one deadline dropout")
	}
}

func TestExecuteUnavailableDropout(t *testing.T) {
	pop := testPopulation(t, 60, trace.ScenarioDynamic)
	w := testWork()
	seen := false
	for _, c := range pop {
		for step := 0; step < 20 && !seen; step++ {
			r := c.ResourcesAt(step)
			if r.Available {
				continue
			}
			out, err := Execute(c, step, w, opt.TechNone, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			if out.Completed || out.Reason != DropUnavailable {
				t.Fatalf("offline client produced %+v", out)
			}
			if out.Cost.UploadBytes != 0 || out.Cost.ComputeSeconds != 0 {
				t.Fatal("offline client should only waste the download")
			}
			seen = true
		}
	}
	if !seen {
		t.Skip("no offline client found in the first 20 steps (seed-dependent)")
	}
}

func TestExecuteMemoryDropout(t *testing.T) {
	pop := testPopulation(t, 1, trace.ScenarioNone)
	c := pop[0]
	// A model too large for any phone: 10B params.
	w := WorkSpec{RefFLOPsPerSample: 1e9, RefParams: 10_000_000_000, Samples: 10, Epochs: 1}
	out, err := Execute(c, 0, w, opt.TechNone, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if out.Completed || out.Reason != DropMemory {
		t.Fatalf("want memory dropout, got %+v", out)
	}
	if out.Cost.UploadBytes != 0 {
		t.Fatal("memory dropout should not upload")
	}
}

func TestExecuteEnergyDropout(t *testing.T) {
	pop := testPopulation(t, 40, trace.ScenarioNone)
	// Enormous compute with a tiny model: memory fits, battery cannot.
	w := WorkSpec{RefFLOPsPerSample: 8e12, RefParams: 1_000_000, Samples: 200, Epochs: 10}
	seen := false
	for _, c := range pop {
		out, err := Execute(c, 0, w, opt.TechNone, 1e12)
		if err != nil {
			t.Fatal(err)
		}
		if out.Reason == DropEnergy {
			seen = true
			if out.Cost.EnergyHours <= 0 {
				t.Fatal("energy dropout must consume energy")
			}
			break
		}
	}
	if !seen {
		t.Fatal("expected at least one energy dropout on an enormous job")
	}
}

func TestExecuteValidation(t *testing.T) {
	pop := testPopulation(t, 1, trace.ScenarioNone)
	if _, err := Execute(pop[0], 0, WorkSpec{}, opt.TechNone, 10); err == nil {
		t.Fatal("Execute accepted invalid work spec")
	}
	if _, err := Execute(pop[0], 0, testWork(), opt.TechNone, 0); err == nil {
		t.Fatal("Execute accepted zero deadline")
	}
}

func TestAccelerationRescuesStragglers(t *testing.T) {
	// The core premise of the paper: a deadline that drops a client under
	// TechNone can be met under an aggressive optimization.
	pop := testPopulation(t, 100, trace.ScenarioDynamic)
	w := testWork()
	rescued := 0
	for _, c := range pop {
		r := c.ResourcesAt(0)
		if !r.Available {
			continue
		}
		base := estimate(w, r, opt.TechNone.Effects(), c.Compute.GFLOPS)
		deadline := base.TotalSeconds * 0.6 // 40% too tight for TechNone
		outNone, err := Execute(c, 0, w, opt.TechNone, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if outNone.Completed {
			continue
		}
		outOpt, err := Execute(c, 0, w, opt.TechPartial75, deadline)
		if err != nil {
			t.Fatal(err)
		}
		if outOpt.Completed {
			rescued++
		}
	}
	if rescued == 0 {
		t.Fatal("partial75 rescued no straggler — acceleration has no effect")
	}
}

func TestEstimateResponseSeconds(t *testing.T) {
	pop := testPopulation(t, 5, trace.ScenarioNone)
	w := testWork()
	for _, c := range pop {
		est := EstimateResponseSeconds(c, 0, w)
		if est <= 0 {
			t.Fatalf("non-positive response estimate %v", est)
		}
	}
}

func TestDropReasonString(t *testing.T) {
	for r, want := range map[DropReason]string{
		DropNone: "none", DropUnavailable: "unavailable", DropMemory: "memory",
		DropEnergy: "energy", DropDeadline: "deadline",
	} {
		if r.String() != want {
			t.Fatalf("DropReason(%d).String() = %q, want %q", r, r.String(), want)
		}
	}
	if DropReason(77).String() == "" {
		t.Fatal("unknown DropReason should render")
	}
}

// TestDrainForGuardsDegenerateEnergyCapacity: a client misconfigured with
// zero (or negative) EnergyCapacity must not corrupt its availability
// trace — the old normalization divided by the capacity and pushed
// NaN/Inf drain into the battery series, which silently disabled the
// low-water availability cutoff for every later round.
func TestDrainForGuardsDegenerateEnergyCapacity(t *testing.T) {
	for _, capacity := range []float64{0, -1, math.NaN()} {
		pop := testPopulation(t, 1, trace.ScenarioNone)
		c := pop[0]
		c.Compute.EnergyCapacity = capacity
		w := testWork()
		for step := 0; step < 30; step++ {
			out, err := Execute(c, step, w, opt.TechNone, 1e9)
			if err != nil {
				t.Fatal(err)
			}
			if out.Cost.ComputeSeconds < 0 || math.IsNaN(out.Cost.ComputeSeconds) ||
				out.Cost.TotalSeconds < 0 || math.IsNaN(out.Cost.TotalSeconds) {
				t.Fatalf("capacity %v step %d: degenerate cost %+v", capacity, step, out.Cost)
			}
			b := c.Avail.BatteryAt(step + 1)
			if math.IsNaN(b) || b < 0 || b > 1 {
				t.Fatalf("capacity %v step %d: battery trace corrupted: %v", capacity, step, b)
			}
		}
	}
	// A sane capacity still drains: pending use applies when the trace
	// extends past the step Execute already touched (t+1), so compare the
	// level one step later.
	pop := testPopulation(t, 1, trace.ScenarioNone)
	c := pop[0]
	c.Compute.EnergyCapacity = 2
	out, err := Execute(c, 0, testWork(), opt.TechNone, 1e9)
	if err != nil {
		t.Fatal(err)
	}
	if out.Reason != DropUnavailable { // an offline step records no use
		before := c.Avail.BatteryAt(1)
		after := c.Avail.BatteryAt(2)
		if math.IsNaN(after) || after >= before {
			t.Fatalf("healthy drain broken: battery %v -> %v (reason %v)", before, after, out.Reason)
		}
	}
}
