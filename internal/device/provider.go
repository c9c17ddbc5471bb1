package device

import (
	"fmt"

	"floatfl/internal/data"
	"floatfl/internal/rngstate"
	"floatfl/internal/trace"
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
func deriveLink(cfg PopulationConfig, id int) (*Client, *rngstate.Source) {
	cfg = normalizePopulation(cfg)
	rng := rngstate.New(data.ClientSeed(cfg.Seed, int64(id)))
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
	c.Avail = trace.NewAvailabilityTrace(rng.Int63())
	c.Interf = trace.NewInterference(cfg.Scenario, rng.Int63())
	return c
}

// Provider is the pure deriver of a population's device state: the
// normalized config from which any client follows as a function of
// (seed, clientID). It holds no cache and nothing mutable, so a client the
// working set evicted and derives again on its next miss is the client it
// was. A derived client is fresh: device
// state is the one mutable piece of a client (training drains its battery),
// so whoever keeps clients resident (population, through wset.Cache) also
// keeps the drain logs of evicted ones and replays them onto re-derivations.
type Provider struct{ cfg PopulationConfig }

// NewProvider validates and normalizes the population config.
func NewProvider(cfg PopulationConfig) (*Provider, error) {
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("device: provider needs positive client count, got %d", cfg.Clients)
	}
	return &Provider{cfg: normalizePopulation(cfg)}, nil
}

// Derive derives client id fresh.
func (p *Provider) Derive(id int) *Client { return DeriveClient(p.cfg, id) }

// EstimateClean returns client id's clean response-time estimate for w from
// an ephemeral partial derivation — compute profile and bandwidth trace,
// not the availability and interference processes the estimate never reads.
// Used by deadline auto-derivation, which samples the population before any
// client has mutable state.
func (p *Provider) EstimateClean(id int, w WorkSpec) float64 {
	c, _ := deriveLink(p.cfg, id)
	return EstimateCleanResponseSeconds(c, w)
}

// Materialize eagerly derives the whole population, fresh — the adapter for
// dense []*Client consumers and the oracle for order-independence tests.
func (p *Provider) Materialize() []*Client {
	out := make([]*Client, p.cfg.Clients)
	for i := range out {
		out[i] = p.Derive(i)
	}
	return out
}
