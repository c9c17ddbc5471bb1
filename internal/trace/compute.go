package trace

import "floatfl/internal/rngstate"

// DeviceClass labels a tier of the mobile/edge device population, echoing
// the AI-Benchmark compute trace's spread across ~950 devices.
type DeviceClass int

const (
	// DeviceLowEnd: budget phones, old SoCs.
	DeviceLowEnd DeviceClass = iota
	// DeviceMidRange: mainstream phones.
	DeviceMidRange
	// DeviceHighEnd: flagship phones.
	DeviceHighEnd
	// DeviceEdge: plugged-in edge boxes / tablets with active cooling.
	DeviceEdge
)

func (c DeviceClass) String() string {
	switch c {
	case DeviceLowEnd:
		return "low-end"
	case DeviceMidRange:
		return "mid-range"
	case DeviceHighEnd:
		return "high-end"
	case DeviceEdge:
		return "edge"
	default:
		return "unknown"
	}
}

// ComputeProfile describes one device's training capability.
type ComputeProfile struct {
	Class DeviceClass
	// GFLOPS is the sustained training throughput in billions of
	// float operations per second.
	GFLOPS float64
	// MemoryMB is the RAM the device can dedicate to training at best.
	MemoryMB float64
	// EnergyCapacity abstracts battery size in "training-hours".
	EnergyCapacity float64
}

// population mix: most clients are low/mid devices — this skew is what
// creates stragglers in the first place.
var classMix = []struct {
	class DeviceClass
	p     float64
	// lognormal-ish GFLOPS range
	gflopsMean, gflopsJitter float64
	memMean, memJitter       float64
	energyMean               float64
}{
	{DeviceLowEnd, 0.35, 6, 0.30, 1500, 0.25, 1.5},
	{DeviceMidRange, 0.40, 16, 0.25, 3000, 0.25, 2.5},
	{DeviceHighEnd, 0.18, 38, 0.22, 6000, 0.20, 3.5},
	{DeviceEdge, 0.07, 80, 0.20, 12000, 0.20, 24},
}

// SampleComputeProfile draws one device from the heterogeneous population.
func SampleComputeProfile(rng *rngstate.Source) ComputeProfile {
	u := rng.Float64()
	var acc float64
	for _, m := range classMix {
		acc += m.p
		if u < acc {
			return ComputeProfile{
				Class:          m.class,
				GFLOPS:         positiveJitter(m.gflopsMean, m.gflopsJitter, rng),
				MemoryMB:       positiveJitter(m.memMean, m.memJitter, rng),
				EnergyCapacity: positiveJitter(m.energyMean, 0.2, rng),
			}
		}
	}
	// float rounding fallthrough: return the last class.
	m := classMix[len(classMix)-1]
	return ComputeProfile{
		Class:          m.class,
		GFLOPS:         positiveJitter(m.gflopsMean, m.gflopsJitter, rng),
		MemoryMB:       positiveJitter(m.memMean, m.memJitter, rng),
		EnergyCapacity: positiveJitter(m.energyMean, 0.2, rng),
	}
}

func positiveJitter(mean, jitter float64, rng *rngstate.Source) float64 {
	f := 1 + jitter*rng.NormFloat64()
	if f < 0.2 {
		f = 0.2
	}
	return mean * f
}
