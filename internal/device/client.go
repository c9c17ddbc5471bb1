// Package device simulates the client side of cross-device FL: each client
// owns a compute profile, a cellular bandwidth trace, an energy-driven
// availability trace, and an interference process, and the cost model maps
// (workload, resources, acceleration technique) to training latency,
// communication latency, memory footprint, energy use, and — when a
// deadline, memory cap, or battery is exceeded — a dropout with its cause.
// This package plays the role FedScale's device simulator plays for the
// paper, extended (as FLOAT extends FedScale) with dynamic per-round
// resource availability.
package device

import (
	"fmt"

	"floatfl/internal/rngstate"
	"floatfl/internal/trace"
)

// Client is one simulated device in the federation.
type Client struct {
	ID      int
	Compute trace.ComputeProfile
	NetKind trace.NetKind
	Net     *trace.BandwidthTrace
	Avail   *trace.AvailabilityTrace
	Interf  *trace.Interference
}

// Resources is the snapshot of what a client can devote to FL at a given
// round: availability fractions from the interference process, the raw
// bandwidth sample, and the battery level.
type Resources struct {
	Available bool
	// CPUFrac, MemFrac, NetFrac are the fractions of each resource left
	// for FL training (interference-adjusted), in [0,1].
	CPUFrac, MemFrac, NetFrac float64
	// BandwidthMbps is the raw downlink bandwidth sample.
	BandwidthMbps float64
	// Battery in [0,1].
	Battery float64
}

// ResourcesAt samples the client's resource state at round t.
func (c *Client) ResourcesAt(t int) Resources {
	cpu, mem, net := c.Interf.At(t)
	return Resources{
		Available:     c.Avail.Available(t),
		CPUFrac:       cpu,
		MemFrac:       mem,
		NetFrac:       net,
		BandwidthMbps: c.Net.At(t),
		Battery:       c.Avail.BatteryAt(t),
	}
}

// PopulationConfig controls client population synthesis.
type PopulationConfig struct {
	Clients  int
	Scenario trace.Scenario
	// FiveGShare is the fraction of clients on 5G (default 0.3).
	FiveGShare float64
	Seed       int64
}

// NewPopulation builds a heterogeneous client population. Every stochastic
// stream is seeded from cfg.Seed so populations are reproducible.
func NewPopulation(cfg PopulationConfig) ([]*Client, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("device: population needs positive client count, got %d", cfg.Clients)
	}
	share := cfg.FiveGShare
	if share <= 0 {
		share = 0.3
	}
	rng := rngstate.New(cfg.Seed)
	out := make([]*Client, cfg.Clients)
	for i := range out {
		kind := trace.Net4G
		if rng.Float64() < share {
			kind = trace.Net5G
		}
		out[i] = &Client{
			ID:      i,
			Compute: trace.SampleComputeProfile(rng),
			NetKind: kind,
			Net:     trace.NewBandwidthTrace(kind, rng.Int63()),
			Avail:   trace.NewAvailabilityTrace(rng.Int63()),
			Interf:  trace.NewInterference(cfg.Scenario, rng.Int63()),
		}
	}
	return out, nil
}
