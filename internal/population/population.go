// Package population unifies the two ways a federation's client state can
// be held: eagerly (the classic *data.Federation + []*device.Client pair,
// everything resident) or lazily (data/device Providers deriving client i
// from (seed, clientID) on demand, with only a bounded LRU working set
// resident). The fl engines run against this seam, so a round costs
// O(selected) — not O(population) — memory when the population is lazy,
// while the eager path stays a zero-overhead thin wrapper that keeps every
// committed golden bit-identical.
//
// Ownership contract: the engines *mutate* a Population's caches only from
// their single-threaded dispatch/collect passes. Dispatch Acquires (pins)
// every selected client before fan-out; workers receive the resolved
// *device.Client and sample slices in their job structs and never touch
// the cache; collect Releases the pins. Cache hit/miss/eviction counters
// are therefore a pure function of the schedule and byte-reproducible
// across any Parallelism.
//
// Derivation itself is a pure function of (seed, clientID) and is not part
// of that contract. Before a sequential pass walks a list of IDs the engine
// may PlanAhead (peek which are not resident), run the plan's Derive jobs
// on its workers, and Stage the batch; the pass then runs unchanged, except
// that a cache miss takes the staged value instead of deriving inline. The
// Get/Add/Pin sequence is the sequential one by construction; an ID evicted
// between peek and use derives inline, a staged value never consumed is
// dropped by the next Stage. Residency is bounded by capacity + pinned +
// one staged batch.
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
	Alpha float64
	// LocalTestFraction defaults to 0.25.
	LocalTestFraction float64
	Seed              int64
	Scenario          trace.Scenario
	// FiveGShare defaults to 0.3.
	FiveGShare float64
	// CacheClients bounds each working-set cache's unpinned residency
	// (≤ 0 defaults to 4096).
	CacheClients int
	// StatSample caps the deterministic strided sample behind population
	// statistics — mean shard size, auto-deadline estimates (≤ 0 defaults
	// to 1024).
	StatSample int
}

// Population is the engines' view of a federation's client state.
type Population struct {
	n int

	// Eager backing (nil in lazy mode).
	fed     *data.Federation
	clients []*device.Client

	// Lazy backing (nil in eager mode).
	dataP      *data.Provider
	devP       *device.Provider
	statSample int

	// Telemetry handles (nil-safe when not instrumented).
	shardHits, shardMisses, shardEvictions *obs.Counter
	devHits, devMisses, devEvictions       *obs.Counter
	shardResident, devResident             *obs.Gauge
	shardPeak, devPeak                     *obs.Gauge
	deriveSamples                          *obs.Histogram
	lastShard, lastDev                     wset.Stats
}

// WrapEager adapts the classic dense pair into a Population. The wrapper
// adds no indirection cost that could perturb results: shards and clients
// are returned by direct index, acquire/release are no-ops.
func WrapEager(fed *data.Federation, clients []*device.Client) (*Population, error) {
	if fed == nil {
		return nil, fmt.Errorf("population: nil federation")
	}
	if len(fed.Train) != len(clients) {
		return nil, fmt.Errorf("fl: federation has %d clients, population has %d",
			len(fed.Train), len(clients))
	}
	return &Population{n: len(clients), fed: fed, clients: clients}, nil
}

// NewLazy constructs a provider-backed population deriving client state on
// demand.
func NewLazy(cfg Config) (*Population, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("population: needs positive client count, got %d", cfg.Clients)
	}
	if cfg.StatSample <= 0 {
		cfg.StatSample = 1024
	}
	dataP, err := data.NewProvider(cfg.Dataset, data.GenerateConfig{
		Clients:           cfg.Clients,
		Alpha:             cfg.Alpha,
		Seed:              cfg.Seed,
		LocalTestFraction: cfg.LocalTestFraction,
	}, cfg.CacheClients)
	if err != nil {
		return nil, err
	}
	devP, err := device.NewProvider(device.PopulationConfig{
		Clients:    cfg.Clients,
		Scenario:   cfg.Scenario,
		FiveGShare: cfg.FiveGShare,
		Seed:       cfg.Seed,
	}, cfg.CacheClients)
	if err != nil {
		return nil, err
	}
	return &Population{n: cfg.Clients, dataP: dataP, devP: devP, statSample: cfg.StatSample}, nil
}

// Eager reports whether the population is dense-backed.
func (p *Population) Eager() bool { return p.dataP == nil }

// NumClients returns the population size.
func (p *Population) NumClients() int { return p.n }

// Profile returns the dataset profile.
func (p *Population) Profile() data.Profile {
	if p.Eager() {
		return p.fed.Profile
	}
	return p.dataP.Profile()
}

// GlobalTest returns the shared class-balanced holdout.
func (p *Population) GlobalTest() []nn.Sample {
	if p.Eager() {
		return p.fed.GlobalTest
	}
	return p.dataP.GlobalTest()
}

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
	return p.devP.Client(id)
}

// AcquireClient returns client id pinned against eviction until Release.
func (p *Population) AcquireClient(id int) *device.Client {
	if p.Eager() {
		return p.clients[id]
	}
	return p.devP.Acquire(id)
}

// AcquireShard returns client id's data shard pinned until Release.
func (p *Population) AcquireShard(id int) data.ClientShard {
	if p.Eager() {
		return data.ClientShard{Train: p.fed.Train[id], LocalTest: p.fed.LocalTest[id]}
	}
	return p.dataP.Acquire(id)
}

// Shard returns client id's data shard without pinning.
func (p *Population) Shard(id int) data.ClientShard {
	if p.Eager() {
		return data.ClientShard{Train: p.fed.Train[id], LocalTest: p.fed.LocalTest[id]}
	}
	return p.dataP.Shard(id)
}

// Ahead is one derive-ahead batch: the IDs of an upcoming sequential pass
// that were not resident when it was planned, with a slot per derivation.
type Ahead struct {
	p         *Population
	clientIDs []int
	clients   []*device.Client
	shardIDs  []int
	shards    []data.ClientShard
}

// PlanAhead peeks — no counter, no recency — which of ids' clients, and with
// shards also which of their shards, are not resident. Eager populations
// have nothing to derive. Like every cache read it belongs to the
// single-threaded passes.
func (p *Population) PlanAhead(ids []int, shards bool) *Ahead {
	a := &Ahead{p: p}
	if p.Eager() {
		return a
	}
	for _, id := range ids {
		if !p.devP.Resident(id) {
			a.clientIDs = append(a.clientIDs, id)
		}
		if shards && !p.dataP.Resident(id) {
			a.shardIDs = append(a.shardIDs, id)
		}
	}
	a.clients = make([]*device.Client, len(a.clientIDs))
	a.shards = make([]data.ClientShard, len(a.shardIDs))
	return a
}

// Jobs returns the number of derivations the batch needs.
func (a *Ahead) Jobs() int { return len(a.clientIDs) + len(a.shardIDs) }

// Derive runs derivation job (0 ≤ job < Jobs). It reads only immutable
// provider state and writes only its own slot, so the jobs of one batch may
// run concurrently on any number of workers.
func (a *Ahead) Derive(job int) {
	if job < len(a.clientIDs) {
		a.clients[job] = a.p.devP.Derive(a.clientIDs[job])
		return
	}
	job -= len(a.clientIDs)
	a.shards[job] = a.p.dataP.Derive(a.shardIDs[job])
}

// Stage makes a fully derived batch, planned on this population, the one
// cache misses draw from, dropping whatever the previous batch left
// unconsumed.
func (p *Population) Stage(a *Ahead) {
	if p.Eager() {
		return
	}
	p.devP.Stage(a.clientIDs, a.clients)
	p.dataP.Stage(a.shardIDs, a.shards)
}

// Release drops the pins AcquireClient + AcquireShard took on client id.
func (p *Population) Release(id int) {
	if p.Eager() {
		return
	}
	p.dataP.Release(id)
	p.devP.Release(id)
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
	return p.dataP.MeanShardSize(p.statSample)
}

// CleanResponseEstimates returns clean (interference-free) response-time
// estimates for a strided deterministic sample of at most StatSample
// clients — the lazy input to deadline auto-derivation. Sampled clients
// are derived ephemerally and never enter the cache.
func (p *Population) CleanResponseEstimates(w device.WorkSpec) []float64 {
	count := p.n
	if !p.Eager() && count > p.statSample {
		count = p.statSample
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

// Stats returns the shard- and device-cache counters (zero in eager mode).
func (p *Population) Stats() (shard, dev wset.Stats) {
	if p.Eager() {
		return wset.Stats{}, wset.Stats{}
	}
	return p.dataP.Stats(), p.devP.Stats()
}

// Instrument registers the population-cache metrics on reg and starts
// feeding them; FlushObs pushes counter deltas at deterministic schedule
// points (the engines call it once per round/barrier).
func (p *Population) Instrument(reg *obs.Registry) {
	if reg == nil || p.Eager() {
		return
	}
	p.shardHits = reg.Counter(`pop_cache_hits_total{kind="shard"}`)
	p.shardMisses = reg.Counter(`pop_cache_misses_total{kind="shard"}`)
	p.shardEvictions = reg.Counter(`pop_cache_evictions_total{kind="shard"}`)
	p.devHits = reg.Counter(`pop_cache_hits_total{kind="device"}`)
	p.devMisses = reg.Counter(`pop_cache_misses_total{kind="device"}`)
	p.devEvictions = reg.Counter(`pop_cache_evictions_total{kind="device"}`)
	p.shardResident = reg.Gauge(`pop_resident_clients{kind="shard"}`)
	p.devResident = reg.Gauge(`pop_resident_clients{kind="device"}`)
	p.shardPeak = reg.Gauge(`pop_resident_peak{kind="shard"}`)
	p.devPeak = reg.Gauge(`pop_resident_peak{kind="device"}`)
	// Derivation cost is observed in deterministic units — samples
	// synthesized per derivation — not wall time, which would break the
	// byte-reproducible exposition contract.
	p.deriveSamples = reg.Histogram("pop_derive_samples", []float64{8, 16, 32, 64, 128, 256, 512, 1024})
	p.dataP.OnDerive = func(samples int) { p.deriveSamples.Observe(float64(samples)) }
}

// FlushObs publishes cache-counter deltas and residency gauges. The
// engines call it at schedule-determined points (end of each collect pass)
// so exposition bytes never depend on Parallelism.
func (p *Population) FlushObs() {
	if p.Eager() || p.shardHits == nil {
		return
	}
	shard, dev := p.Stats()
	p.shardHits.Add(shard.Hits - p.lastShard.Hits)
	p.shardMisses.Add(shard.Misses - p.lastShard.Misses)
	p.shardEvictions.Add(shard.Evictions - p.lastShard.Evictions)
	p.devHits.Add(dev.Hits - p.lastDev.Hits)
	p.devMisses.Add(dev.Misses - p.lastDev.Misses)
	p.devEvictions.Add(dev.Evictions - p.lastDev.Evictions)
	p.shardResident.Set(float64(shard.Resident))
	p.devResident.Set(float64(dev.Resident))
	p.shardPeak.Set(float64(shard.Peak))
	p.devPeak.Set(float64(dev.Peak))
	p.lastShard, p.lastDev = shard, dev
}

// Materialize converts a lazy population into the dense pair (eager
// populations return their backing directly). Intended for small-scale
// equivalence tests and adapters, not for million-client runs.
func (p *Population) Materialize() (*data.Federation, []*device.Client) {
	if p.Eager() {
		return p.fed, p.clients
	}
	return p.dataP.Materialize(), p.devP.Materialize()
}
