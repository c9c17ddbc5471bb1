package trace

import (
	"fmt"

	"floatfl/internal/rngstate"
)

// Scenario selects the co-located application interference model from
// Section 4.3 of the paper.
type Scenario int

const (
	// ScenarioNone: all client resources are dedicated to FL training.
	ScenarioNone Scenario = iota
	// ScenarioStatic: high-priority applications consistently reserve a
	// fixed share of each resource.
	ScenarioStatic
	// ScenarioDynamic: concurrent applications dynamically consume
	// resources — the realistic setting every end-to-end experiment uses.
	ScenarioDynamic
)

func (s Scenario) String() string {
	switch s {
	case ScenarioNone:
		return "no-interference"
	case ScenarioStatic:
		return "static-interference"
	case ScenarioDynamic:
		return "dynamic-interference"
	default:
		return fmt.Sprintf("Scenario(%d)", int(s))
	}
}

// ParseScenario maps a CLI string to a Scenario.
func ParseScenario(s string) (Scenario, error) {
	switch s {
	case "none", "no-interference":
		return ScenarioNone, nil
	case "static", "static-interference":
		return ScenarioStatic, nil
	case "dynamic", "dynamic-interference":
		return ScenarioDynamic, nil
	}
	return 0, fmt.Errorf("trace: unknown interference scenario %q", s)
}

// Interference produces, per time step, the fraction of each resource
// (CPU, memory, network) left available to FL training. Dynamic
// interference is a mean-reverting AR(1) process per resource, clipped to
// [floor, cap]; the cap of 0.8 reflects Table 1's observation that even an
// idle device never hands 100% of CPU/memory to training. Like
// BandwidthTrace it advances in place and keeps only its last two steps.
type Interference struct {
	Scenario Scenario
	seed     int64
	rng      *rngstate.Source

	// static shares (scenario static): fixed per-client draw.
	staticCPU, staticMem, staticNet float64

	// AR(1) state (scenario dynamic).
	cpu, mem, net             float64
	meanCPU, meanMem, meanNet float64

	n   int           // steps generated
	win [2][3]float64 // (cpu, mem, net) of steps n-2 and n-1 at index t&1
}

// cpuCap is the maximum fraction of CPU/memory ever available to FL
// (Table 1's bins stop at "Very High (61-80%)").
const cpuCap = 0.8

// NewInterference builds the interference process for a client.
func NewInterference(s Scenario, seed int64) *Interference {
	rng := rngstate.New(seed)
	in := &Interference{Scenario: s, seed: seed, rng: rng}
	switch s {
	case ScenarioStatic:
		// High-priority apps hold a stable 30-70% of each resource.
		in.staticCPU = clip(cpuCap*(0.35+0.4*rng.Float64()), 0.1, cpuCap)
		in.staticMem = clip(cpuCap*(0.4+0.4*rng.Float64()), 0.1, cpuCap)
		in.staticNet = clip(0.35+0.4*rng.Float64(), 0.1, 1)
	case ScenarioDynamic:
		in.meanCPU = clip(cpuCap*(0.4+0.45*rng.Float64()), 0.15, cpuCap)
		in.meanMem = clip(cpuCap*(0.45+0.45*rng.Float64()), 0.15, cpuCap)
		in.meanNet = clip(0.35+0.5*rng.Float64(), 0.15, 1)
		in.cpu, in.mem, in.net = in.meanCPU, in.meanMem, in.meanNet
	}
	return in
}

// At returns the (cpuAvail, memAvail, netAvail) fractions at step t; a
// negative t reads step 0. A read before the two-step window is answered
// by a fresh copy of the process and leaves the receiver untouched.
func (in *Interference) At(t int) (cpu, mem, net float64) {
	if t < 0 {
		t = 0
	}
	if t < in.n-2 {
		return NewInterference(in.Scenario, in.seed).At(t)
	}
	for ; in.n <= t; in.n++ {
		in.win[in.n&1] = in.step()
	}
	v := in.win[t&1]
	return v[0], v[1], v[2]
}

func (in *Interference) step() [3]float64 {
	switch in.Scenario {
	case ScenarioNone:
		return [3]float64{cpuCap, cpuCap, 1}
	case ScenarioStatic:
		return [3]float64{in.staticCPU, in.staticMem, in.staticNet}
	default:
		const rho = 0.7    // mean reversion
		const sigma = 0.10 // innovation stddev
		in.cpu = clip(in.meanCPU+rho*(in.cpu-in.meanCPU)+sigma*in.rng.NormFloat64(), 0.05, cpuCap)
		in.mem = clip(in.meanMem+rho*(in.mem-in.meanMem)+sigma*in.rng.NormFloat64(), 0.05, cpuCap)
		in.net = clip(in.meanNet+rho*(in.net-in.meanNet)+sigma*in.rng.NormFloat64(), 0.08, 1)
		return [3]float64{in.cpu, in.mem, in.net}
	}
}

func clip(x, lo, hi float64) float64 {
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}
