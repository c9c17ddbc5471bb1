// Package population unifies the two ways a federation's client state can
// be held: eagerly (the classic *data.Federation + []*device.Client pair,
// everything resident) or lazily (client i derived from (seed, clientID) on
// demand, with only a bounded working set resident). The fl engines run
// against this seam, so a round costs O(selected) — not O(population) —
// memory when the population is lazy, while the eager path stays a
// zero-overhead thin wrapper that keeps every committed golden
// bit-identical.
//
// The lazy population is two layers. Below, data.Provider and
// device.Provider are pure derivers: immutable parameters, safe from any
// goroutine. Above, all mutable state is one working set of device clients
// held here — a load-through cache (wset.Cache; see that package for the
// residency bound) and the drain logs of evicted clients that trained — and
// the engines touch it only from their single-threaded dispatch/collect
// passes, which derive the clients they miss inline. Dispatch acquires
// (pins) every selected client before fan-out; workers receive the resolved
// *device.Client in their job structs and never touch the cache; collect
// releases the pins. Cache counters are therefore a pure function of the
// schedule and byte-reproducible across any Parallelism.
//
// Data shards are not part of the working set. The cost model needs only a
// shard's size (ShardSize), and the samples only the job that trains or
// evaluates on them, so that job derives them (ShardInto) into a buffer of
// its own. A worker's buffer is overwritten by its next job: nothing may
// retain a shard past the job it was derived for.
package population

import (
	"fmt"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// Config parameterizes a lazy population.
type Config struct {
	// Dataset names the data profile (femnist | cifar10 | ...).
	Dataset string
	Clients int
	// Alpha is the Dirichlet concentration (≤ 0 defaults to 0.1).
	Alpha    float64
	Seed     int64
	Scenario trace.Scenario
	// FiveGShare defaults to 0.3.
	FiveGShare float64
	// CacheClients bounds the device working set's unpinned residency
	// (≤ 0 defaults to 4096). Shards are derived per job and never cached.
	CacheClients int
}

// statSample caps the deterministic strided sample behind a lazy
// population's statistics: mean shard size and auto-deadline estimates.
const statSample = 1024

// Population is the engines' view of a federation's client state.
type Population struct {
	n          int
	profile    data.Profile
	globalTest []nn.Sample

	// Eager backing (nil in lazy mode).
	fed     *data.Federation
	clients []*device.Client

	// Lazy backing (nil in eager mode): the pure derivers, and the working
	// set — a load-through cache of device clients plus the battery history
	// of evicted clients that trained. The drain-log store grows with the
	// number of distinct clients that ever trained, a compact event list
	// each, not with the population.
	dataP     *data.Provider
	devP      *device.Provider
	devs      *wset.Cache[int, *device.Client]
	drainLogs map[int][]trace.DrainEvent

	devObs        cacheObs
	deriveSamples *obs.Histogram
}

// WrapEager adapts the classic dense pair into a Population. The wrapper
// adds no indirection cost that could perturb results: shards, shard sizes
// and clients are returned by direct index, acquire/release are no-ops.
func WrapEager(fed *data.Federation, clients []*device.Client) (*Population, error) {
	if fed == nil {
		return nil, fmt.Errorf("population: nil federation")
	}
	if len(fed.Train) != len(clients) {
		return nil, fmt.Errorf("fl: federation has %d clients, population has %d",
			len(fed.Train), len(clients))
	}
	return &Population{
		n: len(clients), profile: fed.Profile, globalTest: fed.GlobalTest,
		fed: fed, clients: clients,
	}, nil
}

// NewLazy constructs a population that holds no per-client state: client
// state is derived on demand into the bounded working set.
func NewLazy(cfg Config) (*Population, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("population: needs positive client count, got %d", cfg.Clients)
	}
	if cfg.CacheClients <= 0 {
		cfg.CacheClients = 4096
	}
	dataP, err := data.NewProvider(cfg.Dataset, data.GenerateConfig{
		Clients: cfg.Clients,
		Alpha:   cfg.Alpha,
		Seed:    cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	devP, err := device.NewProvider(device.PopulationConfig{
		Clients:    cfg.Clients,
		Scenario:   cfg.Scenario,
		FiveGShare: cfg.FiveGShare,
		Seed:       cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	p := &Population{
		n: cfg.Clients, profile: dataP.Profile(), globalTest: dataP.GlobalTest(),
		dataP: dataP, devP: devP,
		devs:      wset.New(cfg.CacheClients, devP.Derive),
		drainLogs: make(map[int][]trace.DrainEvent),
	}
	// Eviction persists a client's drain log and the miss that brings it
	// back replays it, so an evicted-and-rederived client is bit-identical
	// to one that stayed resident.
	p.devs.OnEvict = func(id int, c *device.Client) {
		if log := c.Avail.DrainLog(); log != nil {
			p.drainLogs[id] = log
		}
	}
	p.devs.OnMiss = p.replayDrains
	return p, nil
}

// replayDrains installs on a freshly derived client the drain log captured
// when it was last evicted.
func (p *Population) replayDrains(id int, c *device.Client) {
	if log, ok := p.drainLogs[id]; ok {
		c.Avail.ReplayDrains(log)
	}
}

// Eager reports whether the population is dense-backed.
func (p *Population) Eager() bool { return p.dataP == nil }

// NumClients returns the population size.
func (p *Population) NumClients() int { return p.n }

// Profile returns the dataset profile.
func (p *Population) Profile() data.Profile { return p.profile }

// GlobalTest returns the shared class-balanced holdout.
func (p *Population) GlobalTest() []nn.Sample { return p.globalTest }

// Federation returns the dense federation in eager mode, nil otherwise.
func (p *Population) Federation() *data.Federation { return p.fed }

// AllClients returns the dense client slice in eager mode, nil otherwise.
func (p *Population) AllClients() []*device.Client { return p.clients }

// Client returns client id, deriving it on demand in lazy mode. The
// returned pointer is stable only while the client is resident; callers
// holding it across other cache traffic must Acquire instead.
func (p *Population) Client(id int) *device.Client {
	if p.Eager() {
		return p.clients[id]
	}
	return p.devs.Get(id)
}

// AcquireClient returns client id pinned against eviction until Release.
func (p *Population) AcquireClient(id int) *device.Client {
	if p.Eager() {
		return p.clients[id]
	}
	return p.devs.Acquire(id)
}

// ShardSize returns the number of training samples in client id's shard —
// all the cost model needs — without deriving any sample. A lazy
// population draws the size with buf's stream; it writes only buf, so a
// fan-out job may call it with its worker's buffer.
func (p *Population) ShardSize(id int, buf *data.ShardBuf) int {
	if p.Eager() {
		return len(p.fed.Train[id])
	}
	return p.dataP.ShardSize(id, buf)
}

// ShardInto returns client id's data shard: an eager population's resident
// one (buf untouched), or a lazy one derived into buf (fresh backing when
// nil), valid until buf's next derivation. It writes only buf, so a
// fan-out job may call it with its worker's buffer.
func (p *Population) ShardInto(id int, buf *data.ShardBuf) data.ClientShard {
	if p.Eager() {
		return data.ClientShard{Train: p.fed.Train[id], LocalTest: p.fed.LocalTest[id]}
	}
	return p.dataP.DeriveInto(id, buf)
}

// AcquireShard returns a freshly derived copy of client id's shard (the
// resident one when eager). Shards are not cached, so nothing is pinned.
func (p *Population) AcquireShard(id int) data.ClientShard { return p.ShardInto(id, nil) }

// Release drops the pin AcquireClient took on client id.
func (p *Population) Release(id int) {
	if !p.Eager() {
		p.devs.Release(id)
	}
}

// MeanShardSize returns the (estimated) mean client shard size, floored at
// 1. Eager populations compute it exactly — the value feeds the reference
// work spec the committed goldens pin — while lazy populations estimate it
// from a strided deterministic sample of derivation-cheap size draws.
func (p *Population) MeanShardSize() int {
	if p.Eager() {
		if p.n == 0 {
			return 1
		}
		total := 0
		for _, s := range p.fed.Train {
			total += len(s)
		}
		m := total / p.n
		if m <= 0 {
			m = 1
		}
		return m
	}
	return p.dataP.MeanShardSize(statSample)
}

// CleanResponseEstimates returns clean (interference-free) response-time
// estimates for a strided deterministic sample of at most statSample
// clients — the lazy input to deadline auto-derivation. Sampled clients
// are derived ephemerally and never enter the cache.
func (p *Population) CleanResponseEstimates(w device.WorkSpec) []float64 {
	count := p.n
	if !p.Eager() && count > statSample {
		count = statSample
	}
	ests := make([]float64, 0, count)
	for i := 0; i < count; i++ {
		id := i * p.n / count
		if p.Eager() {
			ests = append(ests, device.EstimateCleanResponseSeconds(p.clients[id], w))
		} else {
			ests = append(ests, p.devP.EstimateClean(id, w))
		}
	}
	return ests
}

// Stats returns the shard- and device-cache counters. Shards are not
// cached, so shard is always zero; so is dev in eager mode.
func (p *Population) Stats() (shard, dev wset.Stats) {
	if !p.Eager() {
		dev = p.devs.Stats()
	}
	return shard, dev
}

// cacheObs is one cache's telemetry: the handles (nil until instrumented)
// and the counters as last flushed.
type cacheObs struct {
	hits, misses, evictions *obs.Counter
	resident, peak          *obs.Gauge
	last                    wset.Stats
}

func newCacheObs(reg *obs.Registry, kind string) cacheObs {
	label := `{kind="` + kind + `"}`
	return cacheObs{
		hits:      reg.Counter("pop_cache_hits_total" + label),
		misses:    reg.Counter("pop_cache_misses_total" + label),
		evictions: reg.Counter("pop_cache_evictions_total" + label),
		resident:  reg.Gauge("pop_resident_clients" + label),
		peak:      reg.Gauge("pop_resident_peak" + label),
	}
}

// flush publishes the counter deltas since the last flush and the gauges.
func (o *cacheObs) flush(s wset.Stats) {
	o.hits.Add(s.Hits - o.last.Hits)
	o.misses.Add(s.Misses - o.last.Misses)
	o.evictions.Add(s.Evictions - o.last.Evictions)
	o.resident.Set(float64(s.Resident))
	o.peak.Set(float64(s.Peak))
	o.last = s
}

// Instrument registers the population-cache metrics on reg and starts
// feeding them; FlushObs pushes counter deltas at deterministic schedule
// points (the engines call it once per round/barrier).
func (p *Population) Instrument(reg *obs.Registry) {
	if reg == nil || p.Eager() {
		return
	}
	p.devObs = newCacheObs(reg, "device")
	// Derivation cost is observed in deterministic units — samples
	// synthesized per derivation — not wall time, which would break the
	// byte-reproducible exposition contract.
	p.deriveSamples = reg.Histogram("pop_derive_samples", []float64{8, 16, 32, 64, 128, 256, 512, 1024})
}

// ObserveDerived records that one training job derived samples samples
// (train plus local test; 0 means it derived nothing). The engines call it
// on their collect pass, in slot order; eager and uninstrumented
// populations record nothing.
func (p *Population) ObserveDerived(samples int) {
	if !p.Eager() && samples > 0 {
		p.deriveSamples.Observe(float64(samples))
	}
}

// FlushObs publishes cache-counter deltas and residency gauges. The
// engines call it at schedule-determined points (end of each collect pass)
// so exposition bytes never depend on Parallelism.
func (p *Population) FlushObs() {
	if p.Eager() || p.devObs.hits == nil {
		return
	}
	p.devObs.flush(p.devs.Stats())
}

// Materialize converts a lazy population into the dense pair (eager
// populations return their backing directly). Intended for small-scale
// equivalence tests and adapters, not for million-client runs. It bypasses
// the cache; captured drain logs are replayed so the materialized clients
// carry the same history.
func (p *Population) Materialize() (*data.Federation, []*device.Client) {
	if p.Eager() {
		return p.fed, p.clients
	}
	clients := p.devP.Materialize()
	for id, c := range clients {
		p.replayDrains(id, c)
	}
	return p.dataP.Materialize(), clients
}
