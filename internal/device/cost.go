package device

import (
	"fmt"
	"math"

	"floatfl/internal/opt"
)

// WorkSpec describes one round of local training at real-model scale: the
// cost model consumes the *reference* FLOP/parameter counts of the named
// architecture (see nn.Spec), so simulated latencies match real workloads.
type WorkSpec struct {
	// RefFLOPsPerSample is forward+backward FLOPs per sample.
	RefFLOPsPerSample int64
	// RefParams is the parameter count of the reference model.
	RefParams int64
	Samples   int
	Epochs    int
}

// Validate reports whether the work spec is well-formed.
func (w WorkSpec) Validate() error {
	if w.RefFLOPsPerSample <= 0 || w.RefParams <= 0 || w.Samples <= 0 || w.Epochs <= 0 {
		return fmt.Errorf("device: invalid WorkSpec %+v", w)
	}
	return nil
}

// Cost aggregates the resources one client round consumes.
type Cost struct {
	ComputeSeconds float64
	CommSeconds    float64
	// TotalSeconds is the client's response time (compute + comm).
	TotalSeconds  float64
	UploadBytes   float64
	DownloadBytes float64
	// MemoryBytes is peak training memory.
	MemoryBytes float64
	// EnergyHours is battery consumed, in training-hours.
	EnergyHours float64
}

// DropReason explains why a client failed to return its update.
type DropReason int

const (
	// DropNone: the client completed within the deadline.
	DropNone DropReason = iota
	// DropUnavailable: the client was offline (energy/user activity).
	DropUnavailable
	// DropMemory: training memory exceeded what interference left free.
	DropMemory
	// DropEnergy: the battery could not sustain the round.
	DropEnergy
	// DropDeadline: compute+comm exceeded the round deadline.
	DropDeadline
)

func (r DropReason) String() string {
	switch r {
	case DropNone:
		return "none"
	case DropUnavailable:
		return "unavailable"
	case DropMemory:
		return "memory"
	case DropEnergy:
		return "energy"
	case DropDeadline:
		return "deadline"
	default:
		return fmt.Sprintf("DropReason(%d)", int(r))
	}
}

// Outcome is the result of executing one client round under the cost model.
type Outcome struct {
	Completed bool
	Reason    DropReason
	// Cost is what the round actually consumed — on a dropout, the
	// resources are consumed *and wasted* (the paper's inefficiency
	// metrics count exactly this waste).
	Cost Cost
	// DeadlineDiff is the human-feedback signal: how far past the deadline
	// the client would have finished, as a fraction of the deadline
	// (0 when it finished in time).
	DeadlineDiff float64
	// Resources snapshots what the client had at execution time.
	Resources Resources
}

// bytesPerParam: the paper's systems ship float32 models.
const bytesPerParam = 4

// uplinkShare: cellular uplink is a fraction of downlink throughput.
const uplinkShare = 0.35

// memOverheadFactor: training holds weights + gradients + optimizer/
// activation state; 3x the raw model is a standard rule of thumb.
const memOverheadFactor = 3

// estimate computes the full-round cost for a client's resources under an
// acceleration technique, without executing dropout logic. gflops is the
// device's sustained training throughput. The CPU and network shares are
// floored at 1 % and 2 %: a starved client is slow, not infinitely so.
func estimate(w WorkSpec, r Resources, eff opt.Effects, gflops float64) Cost {
	cpu := r.CPUFrac
	if cpu < 0.01 {
		cpu = 0.01
	}
	net := r.NetFrac
	if net < 0.02 {
		net = 0.02
	}
	speed := gflops
	if speed <= 0 {
		speed = 1
	}
	flops := float64(w.RefFLOPsPerSample) * float64(w.Samples) * float64(w.Epochs)
	computeSec := flops / (speed * 1e9 * cpu) * eff.ComputeFactor

	modelBytes := float64(w.RefParams) * bytesPerParam
	df := eff.DownloadFactor
	if df <= 0 {
		df = 1
	}
	downloadBytes := modelBytes * df
	uploadBytes := modelBytes * eff.CommFactor

	downMbps := r.BandwidthMbps * net
	if downMbps < 0.05 {
		downMbps = 0.05
	}
	upMbps := downMbps * uplinkShare
	commSec := downloadBytes*8/(downMbps*1e6) + uploadBytes*8/(upMbps*1e6)

	memBytes := modelBytes * memOverheadFactor * eff.MemoryFactor

	c := Cost{
		ComputeSeconds: computeSec,
		CommSeconds:    commSec,
		TotalSeconds:   float64(computeSec) + commSec,
		UploadBytes:    uploadBytes,
		DownloadBytes:  downloadBytes,
		MemoryBytes:    memBytes,
		EnergyHours:    computeSec / 3600,
	}
	return c
}

// drainFor charges the battery for a round's actual consumption: compute
// energy plus a radio overhead for communication time, normalized by the
// device's capacity, plus a small fixed wake-up cost.
func drainFor(c *Client, cost Cost) {
	capacity := c.Compute.EnergyCapacity
	if capacity <= 0 || math.IsNaN(capacity) {
		// A zero/negative capacity would make the normalization below
		// non-finite and silently corrupt the availability trace (NaN
		// battery disables the low-water cutoff forever); charge only the
		// fixed wake-up cost.
		c.Avail.RecordUseAmount(0.005)
		return
	}
	commHours := cost.CommSeconds / 3600
	frac := (cost.EnergyHours + float64(0.3*commHours)) / capacity
	if frac < 0 || math.IsNaN(frac) {
		frac = 0
	}
	c.Avail.RecordUseAmount(frac + 0.005)
}

// Execute runs one client round at time step t: it samples resources,
// estimates costs with the client's actual GFLOPS, and applies the dropout
// rules (availability, memory, energy, deadline). Battery drain is
// recorded on the availability trace so future rounds see it.
//
// Concurrency contract: Execute mutates only the receiver client's traces
// (battery drain, and reads past a trace's last generated step, which
// advance it in place; a read of an earlier step mutates nothing), so
// calls for *distinct* clients may run concurrently — this is what lets
// the fl engines fan a round's selected clients across workers. Calls touching the same client must be
// serialized by the caller, and a single client's calls must keep a
// deterministic order (the engines execute each client at most once per
// round/task, in simulation order).
func Execute(c *Client, t int, w WorkSpec, tech opt.Technique, deadlineSec float64) (Outcome, error) {
	if err := w.Validate(); err != nil {
		return Outcome{}, err
	}
	if deadlineSec <= 0 {
		return Outcome{}, fmt.Errorf("device: non-positive deadline %v", deadlineSec)
	}
	r := c.ResourcesAt(t)
	eff := tech.Effects()

	if !r.Available {
		// The server learns quickly that the client is gone; only the
		// download it pushed is wasted.
		cost := Cost{DownloadBytes: float64(w.RefParams) * bytesPerParam}
		return Outcome{Completed: false, Reason: DropUnavailable, Cost: cost, Resources: r}, nil
	}

	full := estimate(w, r, eff, c.Compute.GFLOPS)

	memAvailBytes := c.Compute.MemoryMB * 1e6 * r.MemFrac
	if full.MemoryBytes > memAvailBytes {
		// Training aborts early (allocation failure): the download and a
		// sliver of compute are wasted.
		cost := full
		cost.ComputeSeconds *= 0.1
		cost.CommSeconds = 0
		cost.UploadBytes = 0
		cost.TotalSeconds = cost.ComputeSeconds
		cost.EnergyHours = cost.ComputeSeconds / 3600
		drainFor(c, cost)
		return Outcome{Completed: false, Reason: DropMemory, Cost: cost, Resources: r}, nil
	}

	energyAvail := r.Battery * c.Compute.EnergyCapacity
	if full.EnergyHours > energyAvail {
		// Battery dies partway: the fraction of compute that fit is wasted.
		frac := energyAvail / full.EnergyHours
		if frac < 0 || math.IsNaN(frac) {
			// Degenerate capacity (zero/negative) must not produce a
			// negative or NaN partial cost.
			frac = 0
		}
		cost := full
		cost.ComputeSeconds *= frac
		cost.CommSeconds = 0
		cost.UploadBytes = 0
		cost.TotalSeconds = cost.ComputeSeconds
		cost.EnergyHours = energyAvail
		drainFor(c, cost)
		return Outcome{Completed: false, Reason: DropEnergy, Cost: cost, Resources: r}, nil
	}

	if full.TotalSeconds > deadlineSec {
		// The client worked until the deadline and was cut off; everything
		// it consumed is wasted. DeadlineDiff is the human-feedback signal
		// the paper's Table 1 describes: percentage more time than the set
		// deadline the client would have needed.
		spentFrac := deadlineSec / full.TotalSeconds
		cost := full
		cost.ComputeSeconds *= spentFrac
		cost.CommSeconds *= spentFrac
		cost.UploadBytes *= spentFrac
		cost.TotalSeconds = deadlineSec
		cost.EnergyHours = cost.ComputeSeconds / 3600
		drainFor(c, cost)
		return Outcome{
			Completed:    false,
			Reason:       DropDeadline,
			Cost:         cost,
			DeadlineDiff: (full.TotalSeconds - deadlineSec) / deadlineSec,
			Resources:    r,
		}, nil
	}

	if !c.Avail.Available(t + 1) {
		// The client went offline partway through the round (user picked
		// up the phone, battery saver kicked in, connectivity vanished):
		// roughly half the round's work is wasted and no upload happens.
		cost := full
		cost.ComputeSeconds *= 0.5
		cost.CommSeconds *= 0.25
		cost.UploadBytes = 0
		cost.TotalSeconds = float64(cost.ComputeSeconds) + float64(cost.CommSeconds)
		cost.EnergyHours = cost.ComputeSeconds / 3600
		drainFor(c, cost)
		return Outcome{Completed: false, Reason: DropUnavailable, Cost: cost, Resources: r}, nil
	}

	drainFor(c, full)
	return Outcome{Completed: true, Reason: DropNone, Cost: full, Resources: r}, nil
}

// EstimateCleanResponseSeconds estimates the client's full-round response
// time with no interference at all (full CPU/memory shares, unshared
// network at its step-0 bandwidth). Round deadlines are budgeted against
// this clean baseline, so the dropouts that occur at runtime are the ones
// caused by interference and resource dips — exactly what adaptive
// acceleration can compensate for.
func EstimateCleanResponseSeconds(c *Client, w WorkSpec) float64 {
	r := Resources{
		Available:     true,
		CPUFrac:       0.8,
		MemFrac:       0.8,
		NetFrac:       1,
		BandwidthMbps: c.Net.At(0),
		Battery:       1,
	}
	return estimate(w, r, opt.TechNone.Effects(), c.Compute.GFLOPS).TotalSeconds
}

// EstimateResponseSeconds is the selection-time latency prediction used by
// Oort-style algorithms: the full-round duration with no acceleration,
// assuming the most recent resource snapshot holds.
func EstimateResponseSeconds(c *Client, t int, w WorkSpec) float64 {
	return estimate(w, c.ResourcesAt(t), opt.TechNone.Effects(), c.Compute.GFLOPS).TotalSeconds
}
