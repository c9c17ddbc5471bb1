package device

import (
	"math"
	"testing"
	"testing/quick"

	"floatfl/internal/opt"
	"floatfl/internal/trace"
)

// Property: Execute never produces negative or non-finite costs, never
// exceeds the deadline on a completed round, and reports a drop reason
// exactly when it did not complete.
func TestExecuteInvariantsQuick(t *testing.T) {
	pop, err := NewPopulation(PopulationConfig{
		Clients: 64, Scenario: trace.ScenarioDynamic, Seed: 77,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkSpec{RefFLOPsPerSample: 22e9, RefParams: 21_800_000, Samples: 60, Epochs: 2}

	f := func(clientRaw, stepRaw, techRaw uint8, deadlineRaw uint16) bool {
		c := pop[int(clientRaw)%len(pop)]
		step := int(stepRaw) % 64
		tech := opt.All()[int(techRaw)%opt.NumTechniques]
		deadline := 1 + float64(deadlineRaw)*2 // 1 .. ~130k seconds

		out, err := Execute(c, step, w, tech, deadline)
		if err != nil {
			return false
		}
		cost := out.Cost
		for _, v := range []float64{
			cost.ComputeSeconds, cost.CommSeconds, cost.TotalSeconds,
			cost.UploadBytes, cost.DownloadBytes, cost.MemoryBytes, cost.EnergyHours,
		} {
			if v < 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return false
			}
		}
		if out.Completed {
			if out.Reason != DropNone || out.DeadlineDiff != 0 {
				return false
			}
			if cost.TotalSeconds > deadline+1e-9 {
				return false
			}
		} else {
			if out.Reason == DropNone {
				return false
			}
			// A deadline dropout never consumes more than the deadline.
			if out.Reason == DropDeadline && cost.TotalSeconds > deadline+1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 400}); err != nil {
		t.Fatal(err)
	}
}

// Property: a more aggressive technique never increases the estimated
// total round time relative to TechNone for the same resources (all
// actions trade accuracy for speed; none slow the round down except
// quantization's small compute overhead, which its comm savings dominate
// on any cellular link).
func TestEstimateMonotoneQuick(t *testing.T) {
	pop, err := NewPopulation(PopulationConfig{
		Clients: 32, Scenario: trace.ScenarioDynamic, Seed: 78,
	})
	if err != nil {
		t.Fatal(err)
	}
	w := WorkSpec{RefFLOPsPerSample: 22e9, RefParams: 21_800_000, Samples: 60, Epochs: 2}
	f := func(clientRaw, stepRaw uint8) bool {
		c := pop[int(clientRaw)%len(pop)]
		r := c.ResourcesAt(int(stepRaw) % 32)
		base := estimate(w, r, opt.TechNone.Effects(), c.Compute.GFLOPS)
		for _, tech := range []opt.Technique{opt.TechPrune75, opt.TechPartial75} {
			e := estimate(w, r, tech.Effects(), c.Compute.GFLOPS)
			if e.TotalSeconds > base.TotalSeconds {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: repeated execution drains the battery monotonically downward
// relative to an idle client with the same seed.
func TestBatteryDrainMonotone(t *testing.T) {
	mk := func() *Client {
		pop, err := NewPopulation(PopulationConfig{
			Clients: 1, Scenario: trace.ScenarioNone, Seed: 79,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pop[0]
	}
	busy, idle := mk(), mk()
	w := WorkSpec{RefFLOPsPerSample: 22e9, RefParams: 21_800_000, Samples: 100, Epochs: 5}
	for step := 0; step < 10; step++ {
		if _, err := Execute(busy, step, w, opt.TechNone, 1e9); err != nil {
			t.Fatal(err)
		}
		idle.ResourcesAt(step)
	}
	if busy.ResourcesAt(10).Battery > idle.ResourcesAt(10).Battery {
		t.Fatalf("training client's battery (%v) above idle client's (%v)",
			busy.ResourcesAt(10).Battery, idle.ResourcesAt(10).Battery)
	}
}

// Property: acceleration preserves battery — partial75 drains less energy
// than TechNone for the same work.
func TestAccelerationSavesEnergy(t *testing.T) {
	mk := func() *Client {
		pop, err := NewPopulation(PopulationConfig{
			Clients: 1, Scenario: trace.ScenarioNone, Seed: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		return pop[0]
	}
	heavy, light := mk(), mk()
	w := WorkSpec{RefFLOPsPerSample: 22e9, RefParams: 21_800_000, Samples: 100, Epochs: 5}
	for step := 0; step < 8; step++ {
		if _, err := Execute(heavy, step, w, opt.TechNone, 1e9); err != nil {
			t.Fatal(err)
		}
		if _, err := Execute(light, step, w, opt.TechPartial75, 1e9); err != nil {
			t.Fatal(err)
		}
	}
	if light.ResourcesAt(8).Battery < heavy.ResourcesAt(8).Battery {
		t.Fatalf("accelerated client drained more battery (%v) than unaccelerated (%v)",
			light.ResourcesAt(8).Battery, heavy.ResourcesAt(8).Battery)
	}
}
