package trace

import "floatfl/internal/rngstate"

// AvailabilityTrace models energy-driven client availability as an ON/OFF
// semi-Markov process with geometric dwell times plus a battery level that
// drains under training load and recharges while idle. This deliberately
// violates the "fixed linear availability window" assumption that the paper
// criticizes in REFL: window lengths are random and correlated with
// consumption, so window prediction from history is genuinely hard. The
// process advances in place as reads move forward and keeps only its last
// two steps; an earlier step is re-derived from the seed and the drain log.
type AvailabilityTrace struct {
	seed    int64
	rng     *rngstate.Source
	battery float64 // in [0,1]
	on      bool
	n       int // steps generated
	// avail and levels hold steps n-2 and n-1 at index t&1.
	avail  [2]bool
	levels [2]float64
	// drains is the append-only log of battery-drain requests, each tagged
	// with the series step whose generation consumes it. Together with the
	// seed it is the *complete* mutable state of the trace: replaying the
	// log on a freshly-constructed trace reproduces the series bit-for-bit,
	// which is what lets a lazy population evict and re-derive clients.
	drains   []DrainEvent
	drainIdx int // first unconsumed entry of drains
}

// The process's constants: a phone that is usable roughly 80% of the
// time. ON and OFF dwell times are geometric with means of 30 and 6
// steps; an idle step recharges 5% of the battery, and below lowWater
// the device is unavailable whatever its ON/OFF state.
const (
	meanOnSteps   = 30
	meanOffSteps  = 6
	chargePerStep = 0.05
	lowWater      = 0.15
)

// DrainEvent records one battery-drain request: Frac battery fraction,
// consumed when series step Step is generated. Events are logged in
// nondecreasing Step order.
type DrainEvent struct {
	Step int
	Frac float64
}

// NewAvailabilityTrace constructs the trace of the given seed.
func NewAvailabilityTrace(seed int64) *AvailabilityTrace {
	a := &AvailabilityTrace{seed: seed}
	a.start()
	return a
}

// start draws the initial battery level and ON state from a fresh stream.
func (a *AvailabilityTrace) start() {
	a.rng = rngstate.New(a.seed)
	a.battery = 0.5 + 0.5*a.rng.Float64()
	a.on = a.rng.Float64() < 0.8
}

// Available reports whether the client can participate at step t; a
// negative t reads step 0.
func (a *AvailabilityTrace) Available(t int) bool {
	on, _ := a.at(t)
	return on
}

// BatteryAt returns the battery level in [0,1] at step t; a negative t
// reads step 0.
func (a *AvailabilityTrace) BatteryAt(t int) float64 {
	_, level := a.at(t)
	return level
}

// at reads step t. A read before the two-step window is answered by a copy
// restarted from the seed, which replays the drain log: the drains that
// steps 0..t consumed are exactly those with Step <= t. The receiver,
// and with it the Step the next RecordUseAmount logs, is left untouched.
func (a *AvailabilityTrace) at(t int) (bool, float64) {
	if t < 0 {
		t = 0
	}
	if t < a.n-2 {
		past := *a
		past.n, past.drainIdx = 0, 0
		past.start()
		return past.at(t)
	}
	a.extend(t)
	return a.avail[t&1], a.levels[t&1]
}

// RecordUseAmount drains an explicit battery fraction — used by the cost
// model to charge each round proportionally to the energy it actually
// consumed, so acceleration techniques that cut compute also preserve
// battery (and with it future availability).
func (a *AvailabilityTrace) RecordUseAmount(frac float64) {
	if frac > 0 {
		a.drains = append(a.drains, DrainEvent{Step: a.n, Frac: frac})
	}
}

// DrainLog returns a copy of the drain-event log. A trace constructed with
// the same seed and then ReplayDrains'd with this log is bit-identical to
// the receiver — the log plus the seed is the trace's whole mutable state.
func (a *AvailabilityTrace) DrainLog() []DrainEvent {
	if len(a.drains) == 0 {
		return nil
	}
	return append([]DrainEvent(nil), a.drains...)
}

// ReplayDrains installs a previously-captured drain log on a trace that has
// not yet generated any steps. It is the re-derivation half of the lazy
// population contract: evict a client, keep only its DrainLog, and a fresh
// NewAvailabilityTrace + ReplayDrains reproduces its battery/availability
// series exactly. Panics if called after the series started generating,
// because the replayed past could no longer take effect.
func (a *AvailabilityTrace) ReplayDrains(log []DrainEvent) {
	if a.n > 0 {
		panic("trace: ReplayDrains called on a trace with generated steps")
	}
	a.drains = append([]DrainEvent(nil), log...)
	a.drainIdx = 0
}

// StepsGenerated returns how many series steps the trace has produced.
// Checkpoint restore uses it as a guard: drain logs may only be replayed
// onto a pristine trace (see ReplayDrains), and a nonzero value means the
// target population was already used.
func (a *AvailabilityTrace) StepsGenerated() int { return a.n }

// extend generates steps up to and including t.
func (a *AvailabilityTrace) extend(t int) {
	for ; a.n <= t; a.n++ {
		// Consume every drain logged for this step, in log order (the same
		// accumulation order the old pending-sum used, so the float math is
		// unchanged); an undrained step charges instead.
		var drain float64
		for a.drainIdx < len(a.drains) && a.drains[a.drainIdx].Step <= a.n {
			drain += a.drains[a.drainIdx].Frac
			a.drainIdx++
		}
		if drain > 0 {
			a.battery -= drain
		} else {
			a.battery += chargePerStep
		}
		if a.battery < 0 {
			a.battery = 0
		}
		if a.battery > 1 {
			a.battery = 1
		}
		// ON/OFF switching.
		if a.on {
			if a.rng.Float64() < 1.0/meanOnSteps {
				a.on = false
			}
		} else {
			if a.rng.Float64() < 1.0/meanOffSteps {
				a.on = true
			}
		}
		avail := a.on
		if a.battery < lowWater {
			avail = false
		}
		a.avail[a.n&1] = avail
		a.levels[a.n&1] = a.battery
	}
}
