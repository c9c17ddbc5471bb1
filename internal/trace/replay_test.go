package trace

import (
	"math/rand"
	"testing"
)

// TestDrainLogReplayBitIdentical is the contract the lazy population's
// eviction path stands on: a trace's DrainLog plus its seed fully
// determine its series. Interleave reads and drains on a live trace,
// then rebuild a fresh trace from the log and check every step bit-for-bit.
func TestDrainLogReplayBitIdentical(t *testing.T) {
	live := NewAvailabilityTrace(42)

	rng := rand.New(rand.NewSource(7))
	step := 0
	for i := 0; i < 40; i++ {
		step += rng.Intn(5)
		live.Available(step)
		live.BatteryAt(step)
		switch rng.Intn(3) {
		case 0:
			live.RecordUseAmount(0.08)
		case 1:
			live.RecordUseAmount(0.01 + 0.1*rng.Float64())
		}
	}
	horizon := step + 10
	live.Available(horizon)

	replayed := NewAvailabilityTrace(42)
	replayed.ReplayDrains(live.DrainLog())
	for s := 0; s <= horizon; s++ {
		if got, want := replayed.Available(s), live.Available(s); got != want {
			t.Fatalf("step %d: replayed availability %v, live %v", s, got, want)
		}
		if got, want := replayed.BatteryAt(s), live.BatteryAt(s); got != want {
			t.Fatalf("step %d: replayed battery %v, live %v (must be bit-exact)", s, got, want)
		}
	}
}

// TestDrainLogEmpty pins that an untouched trace has a nil log and that
// replaying a nil log is a no-op equivalent to a fresh trace.
func TestDrainLogEmpty(t *testing.T) {
	a := NewAvailabilityTrace(3)
	a.Available(20)
	if got := a.DrainLog(); got != nil {
		t.Fatalf("trace without recorded use has log %v, want nil", got)
	}

	b := NewAvailabilityTrace(3)
	b.ReplayDrains(nil)
	for s := 0; s <= 20; s++ {
		if b.BatteryAt(s) != a.BatteryAt(s) {
			t.Fatalf("step %d: nil-replay battery %v, fresh %v", s, b.BatteryAt(s), a.BatteryAt(s))
		}
	}
}

// TestReplayAfterGenerationPanics pins the misuse guard: replay is only
// meaningful on a trace whose series has not started.
func TestReplayAfterGenerationPanics(t *testing.T) {
	a := NewAvailabilityTrace(5)
	a.Available(0)
	defer func() {
		if recover() == nil {
			t.Fatal("ReplayDrains after generation did not panic")
		}
	}()
	a.ReplayDrains([]DrainEvent{{Step: 0, Frac: 0.1}})
}
