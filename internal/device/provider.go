package device

import (
	"fmt"
	"math/rand"

	"floatfl/internal/data"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// normalizePopulation applies NewPopulation's defaulting rules so lazy and
// eager derivation agree on the effective 5G share.
func normalizePopulation(cfg PopulationConfig) PopulationConfig {
	if cfg.FiveGShare <= 0 {
		cfg.FiveGShare = 0.3
	}
	return cfg
}

// deriveLink derives the head of client id's private stream
// (data.ClientSeed) — network kind, compute profile, bandwidth trace — and
// returns the stream positioned at the availability seed. It is all a clean
// response estimate reads, so set-up sampling stops here.
func deriveLink(cfg PopulationConfig, id int) (*Client, *rand.Rand) {
	cfg = normalizePopulation(cfg)
	rng := rand.New(rand.NewSource(data.ClientSeed(cfg.Seed, int64(id))))
	kind := trace.Net4G
	if rng.Float64() < cfg.FiveGShare {
		kind = trace.Net5G
	}
	return &Client{
		ID:      id,
		Compute: trace.SampleComputeProfile(rng),
		NetKind: kind,
		Net:     trace.NewBandwidthTrace(kind, rng.Int63()),
	}, rng
}

// DeriveClient derives client id's device state purely from (cfg.Seed, id):
// network kind, compute profile, and the three trace processes, all seeded
// from the client's private stream. Like the data-side derivation it is
// order-independent, unlike the sequential single-stream NewPopulation.
func DeriveClient(cfg PopulationConfig, id int) *Client {
	c, rng := deriveLink(cfg, id)
	c.Avail = trace.NewAvailabilityTrace(trace.AvailabilityConfig{Seed: rng.Int63()})
	c.Interf = trace.NewInterference(cfg.Scenario, rng.Int63())
	return c
}

// Provider derives device clients on demand and keeps a bounded LRU
// working set resident. Device state is the one mutable piece of a client
// (training drains its battery), so eviction persists the availability
// trace's drain log and re-derivation replays it — an evicted-and-rederived
// client is bit-identical to one that stayed resident. The drain-log store
// grows with the number of *distinct clients that ever trained*, a compact
// event list each, not with the population.
//
// Like the data provider, cache and drain-store mutation — Client, Acquire,
// Release, Stage — is confined to the engines' single-threaded passes,
// making cache counters deterministic, while Derive is pure and may run on
// workers: a derived-ahead client is Staged fresh, and the miss that
// consumes it replays the drain log, on the dispatch thread, exactly where
// an inline derivation would.
type Provider struct {
	cfg   PopulationConfig
	cache *wset.Cache[int, *Client]
	// drainLogs holds the battery history of evicted clients that trained.
	drainLogs map[int][]trace.DrainEvent
	// staged holds the current derive-ahead batch, keyed by client ID; a
	// miss consumes its entry, the next Stage drops whatever is left.
	staged map[int]*Client
}

// NewProvider constructs a lazy device provider. cacheClients bounds the
// unpinned resident working set (≤ 0 defaults to 4096).
func NewProvider(cfg PopulationConfig, cacheClients int) (*Provider, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("device: provider needs positive client count, got %d", cfg.Clients)
	}
	if cacheClients <= 0 {
		cacheClients = 4096
	}
	p := &Provider{
		cfg:       normalizePopulation(cfg),
		drainLogs: make(map[int][]trace.DrainEvent),
	}
	p.cache = wset.New[int, *Client](cacheClients, func(id int, c *Client) {
		if log := c.Avail.DrainLog(); log != nil {
			p.drainLogs[id] = log
		}
	})
	return p, nil
}

// NumClients returns the population size.
func (p *Provider) NumClients() int { return p.cfg.Clients }

// Resident reports whether client id is in the working set, without
// counting a lookup or touching recency.
func (p *Provider) Resident(id int) bool { return p.cache.Contains(id) }

// Derive derives client id fresh — no cache access, no drain replay — and
// is safe to call from any number of goroutines.
func (p *Provider) Derive(id int) *Client { return DeriveClient(p.cfg, id) }

// Stage installs clients[i] as the derived-ahead value of ids[i], replacing
// the previous batch and whatever it left unconsumed.
func (p *Provider) Stage(ids []int, clients []*Client) {
	p.staged = make(map[int]*Client, len(ids))
	for i, id := range ids {
		p.staged[id] = clients[i]
	}
}

// Client returns client id; a cache miss takes the staged value, or derives
// inline when there is none, and replays any drain log captured when the
// client was last evicted.
func (p *Provider) Client(id int) *Client {
	if c, ok := p.cache.Get(id); ok {
		return c
	}
	c, ok := p.staged[id]
	if ok {
		delete(p.staged, id)
	} else {
		c = p.Derive(id)
	}
	if log, ok := p.drainLogs[id]; ok {
		c.Avail.ReplayDrains(log)
	}
	p.cache.Add(id, c)
	return c
}

// Acquire returns client id pinned against eviction until the matching
// Release. The engines pin every dispatched client for its round: workers
// mutate the client's traces (battery drain), which must land on the same
// instance the collect pass releases.
func (p *Provider) Acquire(id int) *Client {
	c := p.Client(id)
	p.cache.Pin(id)
	return c
}

// Release drops one pin reference on client id.
func (p *Provider) Release(id int) { p.cache.Unpin(id) }

// EstimateClean returns client id's clean response-time estimate for w from
// an ephemeral partial derivation — compute profile and bandwidth trace,
// not the availability and interference processes the estimate never reads
// — without touching the cache or drain store. Used by deadline
// auto-derivation, which samples the population before any client has
// mutable state.
func (p *Provider) EstimateClean(id int, w WorkSpec) float64 {
	c, _ := deriveLink(p.cfg, id)
	return EstimateCleanResponseSeconds(c, w)
}

// Stats returns the working-set cache counters.
func (p *Provider) Stats() wset.Stats { return p.cache.Stats() }

// DrainState returns a copy of every drain log the provider knows about:
// the evicted-client store plus the logs of currently resident (pinned or
// not) clients. Together with the population config it is the provider's
// complete client-visible mutable state.
func (p *Provider) DrainState() map[int][]trace.DrainEvent {
	logs := make(map[int][]trace.DrainEvent, len(p.drainLogs))
	for id, log := range p.drainLogs {
		logs[id] = append([]trace.DrainEvent(nil), log...)
	}
	p.cache.Range(func(id int, c *Client, pinned bool) {
		if log := c.Avail.DrainLog(); log != nil {
			logs[id] = log
		}
	})
	return logs
}

// RestoreDrainState installs a captured drain-log map. The provider must
// be fresh — never having derived a client — so every future derivation
// replays its log from step zero.
func (p *Provider) RestoreDrainState(logs map[int][]trace.DrainEvent) error {
	if p.cache.Len() != 0 || len(p.drainLogs) != 0 {
		return fmt.Errorf("device: drain-state restore requires a fresh provider (cache %d, logs %d)",
			p.cache.Len(), len(p.drainLogs))
	}
	for id, log := range logs {
		p.drainLogs[id] = append([]trace.DrainEvent(nil), log...)
	}
	return nil
}

// UnpinnedResidents returns the unpinned resident client IDs in
// least-recently-used-first order — the replay order WarmCache needs to
// reconstruct the LRU list.
func (p *Provider) UnpinnedResidents() []int { return p.cache.UnpinnedKeys() }

// WarmCache derives the given clients in order, re-populating cache
// residency after a restore. The caller overwrites cache stats afterwards
// (SetCacheStats), so the warm-up's own misses never reach telemetry.
func (p *Provider) WarmCache(ids []int) {
	for _, id := range ids {
		p.Client(id)
	}
}

// SetCacheStats overwrites the cache activity counters with captured ones.
func (p *Provider) SetCacheStats(s wset.Stats) { p.cache.SetStats(s) }

// Materialize eagerly derives the whole population — the adapter for dense
// []*Client consumers and the oracle for order-independence tests. It
// bypasses the cache; any previously captured drain logs are replayed so
// the materialized clients carry the same history.
func (p *Provider) Materialize() []*Client {
	out := make([]*Client, p.cfg.Clients)
	for i := range out {
		c := DeriveClient(p.cfg, i)
		if log, ok := p.drainLogs[i]; ok {
			c.Avail.ReplayDrains(log)
		}
		out[i] = c
	}
	return out
}
