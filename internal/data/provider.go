package data

import (
	"fmt"
	"math"
	"math/rand"

	"floatfl/internal/nn"
	"floatfl/internal/tensor"
	"floatfl/internal/wset"
)

// ClientSeed mixes the federation seed with a client ID into the seed of
// that client's private RNG stream (splitmix64-style finalizer). Every
// stream is independent of every other, so client i's shard can be derived
// without generating clients 0..i-1 — the property the lazy population
// stands on. Negative IDs are reserved for shared streams (class centers,
// global test set).
func ClientSeed(seed, id int64) int64 {
	z := uint64(seed)*0x9E3779B97F4A7C15 + uint64(id)*0xBF58476D1CE4E5B9 + 0x94D049BB133111EB
	z ^= z >> 30
	z *= 0xBF58476D1CE4E5B9
	z ^= z >> 27
	z *= 0x94D049BB133111EB
	z ^= z >> 31
	return int64(z >> 1) // rand.NewSource wants a non-negative-friendly seed; any value works, keep it positive for readability
}

// Reserved pseudo-client IDs for the federation's shared streams.
const (
	centersStreamID    = -1
	globalTestStreamID = -2
)

// ClientShard is one client's lazily-derived data: its training set and
// local test split. Shards are immutable once derived; callers must not
// mutate the samples (they may be shared by a cache).
type ClientShard struct {
	Train     []nn.Sample
	LocalTest []nn.Sample
}

// normalizeGenerate applies Generate's defaulting rules so the lazy and
// eager paths agree on effective alpha / test fraction.
func normalizeGenerate(cfg GenerateConfig) GenerateConfig {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.1
	}
	if cfg.LocalTestFraction <= 0 || cfg.LocalTestFraction >= 1 {
		cfg.LocalTestFraction = 0.25
	}
	return cfg
}

// DeriveCenters derives the federation's shared class centers from the
// seed's dedicated stream. All clients of a federation share one centers
// slice; the vectors are immutable after derivation.
func DeriveCenters(p Profile, seed int64) []tensor.Vector {
	rng := rand.New(rand.NewSource(ClientSeed(seed, centersStreamID)))
	centers := make([]tensor.Vector, p.Classes)
	for c := range centers {
		centers[c] = tensor.NewVector(p.Dim)
		tensor.RandnInto(centers[c], p.Sep, rng)
	}
	return centers
}

// deriveSamples draws n samples from the caller's stream — sample s is
// class(s)'s center plus profile noise, the class drawn before the noise —
// into one []nn.Sample whose feature vectors are carved, capacity-clipped,
// from one slab: two allocations per call, not two per sample. The explicit
// float64 conversion rounds the noise term before the add on every
// architecture, as storing it in a scratch vector used to.
func deriveSamples(p Profile, centers []tensor.Vector, n int, class func(s int) int, rng *rand.Rand) []nn.Sample {
	out := make([]nn.Sample, n)
	slab := make([]float64, n*p.Dim)
	for s := range out {
		label := class(s)
		x := slab[s*p.Dim : (s+1)*p.Dim : (s+1)*p.Dim]
		for i, c := range centers[label] {
			x[i] = c + float64(rng.NormFloat64()*p.Noise)
		}
		out[s] = nn.Sample{X: x, Label: label}
	}
	return out
}

// DeriveClient derives client id's shard purely from (cfg.Seed, id): label
// distribution, sample volume, then train and local-test samples, all from
// the client's private RNG stream. The derivation is order-independent —
// deriving client 7 first and client 3 second yields bit-identical shards
// to any other order, unlike the sequential single-stream Generate.
func DeriveClient(p Profile, cfg GenerateConfig, centers []tensor.Vector, id int) ClientShard {
	cfg = normalizeGenerate(cfg)
	rng := rand.New(rand.NewSource(ClientSeed(cfg.Seed, int64(id))))
	labelDist := SampleDirichlet(p.Classes, cfg.Alpha, rng)
	n := sampleClientVolume(p.MeanSamplesPerClient, rng)
	nTest := int(math.Round(float64(n) * cfg.LocalTestFraction))
	if nTest < 2 {
		nTest = 2
	}
	all := deriveSamples(p, centers, n+nTest, func(int) int { return sampleCategorical(labelDist, rng) }, rng)
	// One backing array, two views: clip Train so it cannot grow into
	// LocalTest.
	return ClientShard{Train: all[:n:n], LocalTest: all[n:]}
}

// DeriveShardSize derives only client id's sample count — the label-
// distribution and volume draws, without synthesizing any sample vectors.
// Used by provider statistics (mean shard size) at a tiny fraction of the
// cost of a full derivation.
func DeriveShardSize(p Profile, cfg GenerateConfig, id int) int {
	cfg = normalizeGenerate(cfg)
	rng := rand.New(rand.NewSource(ClientSeed(cfg.Seed, int64(id))))
	SampleDirichlet(p.Classes, cfg.Alpha, rng)
	return sampleClientVolume(p.MeanSamplesPerClient, rng)
}

// DeriveGlobalTest derives the class-balanced holdout from its dedicated
// stream.
func DeriveGlobalTest(p Profile, seed int64, centers []tensor.Vector) []nn.Sample {
	rng := rand.New(rand.NewSource(ClientSeed(seed, globalTestStreamID)))
	return deriveSamples(p, centers, p.TestSamples, func(s int) int { return s % p.Classes }, rng)
}

// Provider derives client shards on demand from (seed, clientID) and keeps
// a bounded LRU working set resident. It is the lazy counterpart of
// Generate: a Provider with capacity ≥ Clients that touches every client
// produces the same federation Materialize would, but a round that touches
// only selected clients costs O(selected) memory instead of O(population).
//
// Cache mutation — Shard, Acquire, Release, Stage — is confined to the
// engines' single-threaded dispatch/collect passes (the same contract
// selectors and controllers already obey), which makes cache
// hit/miss/eviction counts deterministic. Derivation is not: Derive is a
// pure function of (seed, id) over immutable provider state and may run on
// any number of workers. Derive-ahead joins the two — the engine derives
// the non-resident (Resident) shards of an upcoming pass on its workers and
// Stages them, and a miss takes the staged value instead of deriving
// inline. Residency is bounded by capacity + pinned + one staged batch.
type Provider struct {
	profile Profile
	cfg     GenerateConfig
	centers []tensor.Vector

	cache      *wset.Cache[int, ClientShard]
	globalTest []nn.Sample
	// staged holds the current derive-ahead batch, keyed by client ID; a
	// miss consumes its entry, the next Stage drops whatever is left.
	staged map[int]ClientShard

	// OnDerive, when non-nil, observes each full shard derivation with the
	// number of samples synthesized (population telemetry hook).
	OnDerive func(samples int)
}

// NewProvider constructs a lazy shard provider. cacheClients bounds the
// unpinned resident working set (≤ 0 defaults to 4096). Only the shared
// state — class centers and the global test set — is derived eagerly.
func NewProvider(profileName string, cfg GenerateConfig, cacheClients int) (*Provider, error) {
	p, err := LookupProfile(profileName)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: provider requires positive client count, got %d", cfg.Clients)
	}
	if cacheClients <= 0 {
		cacheClients = 4096
	}
	cfg = normalizeGenerate(cfg)
	centers := DeriveCenters(p, cfg.Seed)
	return &Provider{
		profile:    p,
		cfg:        cfg,
		centers:    centers,
		cache:      wset.New[int, ClientShard](cacheClients, nil),
		globalTest: DeriveGlobalTest(p, cfg.Seed, centers),
	}, nil
}

// Profile returns the dataset profile.
func (pr *Provider) Profile() Profile { return pr.profile }

// NumClients returns the population size.
func (pr *Provider) NumClients() int { return pr.cfg.Clients }

// Alpha returns the effective Dirichlet concentration.
func (pr *Provider) Alpha() float64 { return pr.cfg.Alpha }

// GlobalTest returns the shared class-balanced holdout.
func (pr *Provider) GlobalTest() []nn.Sample { return pr.globalTest }

// Resident reports whether client id's shard is in the working set, without
// counting a lookup or touching recency.
func (pr *Provider) Resident(id int) bool { return pr.cache.Contains(id) }

// Derive derives client id's shard without touching the cache — pure, and
// safe to call from any number of goroutines.
func (pr *Provider) Derive(id int) ClientShard {
	return DeriveClient(pr.profile, pr.cfg, pr.centers, id)
}

// Stage installs shards[i] as the derived-ahead value of ids[i], replacing
// the previous batch and whatever it left unconsumed.
func (pr *Provider) Stage(ids []int, shards []ClientShard) {
	pr.staged = make(map[int]ClientShard, len(ids))
	for i, id := range ids {
		pr.staged[id] = shards[i]
	}
}

// Shard returns client id's shard; a cache miss takes the staged value, or
// derives inline when there is none.
func (pr *Provider) Shard(id int) ClientShard {
	if s, ok := pr.cache.Get(id); ok {
		return s
	}
	s, ok := pr.staged[id]
	if ok {
		delete(pr.staged, id)
	} else {
		s = pr.Derive(id)
	}
	if pr.OnDerive != nil {
		pr.OnDerive(len(s.Train) + len(s.LocalTest))
	}
	pr.cache.Add(id, s)
	return s
}

// Acquire returns client id's shard pinned against eviction until the
// matching Release — the engines pin every selected client for the
// duration of its round so parallel workers never observe an evicted
// shard.
func (pr *Provider) Acquire(id int) ClientShard {
	s := pr.Shard(id)
	pr.cache.Pin(id)
	return s
}

// Release drops one pin reference on client id.
func (pr *Provider) Release(id int) { pr.cache.Unpin(id) }

// ShardSize returns client id's sample count without synthesizing samples
// or touching the cache.
func (pr *Provider) ShardSize(id int) int {
	return DeriveShardSize(pr.profile, pr.cfg, id)
}

// MeanShardSize estimates the population's mean shard size from a strided
// deterministic sample of at most sampleCap clients (≤ 0 defaults to 1024).
// The estimate is exact for populations within the cap.
func (pr *Provider) MeanShardSize(sampleCap int) int {
	if sampleCap <= 0 {
		sampleCap = 1024
	}
	n := pr.cfg.Clients
	if n <= 0 {
		return 1
	}
	count := n
	if count > sampleCap {
		count = sampleCap
	}
	total := 0
	for i := 0; i < count; i++ {
		total += pr.ShardSize(i * n / count)
	}
	m := total / count
	if m <= 0 {
		m = 1
	}
	return m
}

// Stats returns the working-set cache counters.
func (pr *Provider) Stats() wset.Stats { return pr.cache.Stats() }

// UnpinnedResidents returns the unpinned resident shard IDs in
// least-recently-used-first order. Shards are immutable, so residency plus
// cache stats is the provider's whole checkpointable state.
func (pr *Provider) UnpinnedResidents() []int { return pr.cache.UnpinnedKeys() }

// WarmCache derives the given shards in order, re-populating cache
// residency after a restore; the caller overwrites stats afterwards.
func (pr *Provider) WarmCache(ids []int) {
	for _, id := range ids {
		pr.Shard(id)
	}
}

// SetCacheStats overwrites the cache activity counters with captured ones.
func (pr *Provider) SetCacheStats(s wset.Stats) { pr.cache.SetStats(s) }

// Materialize eagerly derives every client into a Federation — the
// adapter that lets lazy-provider populations feed any API still wanting
// dense arrays, and the oracle the order-independence tests compare
// against. It bypasses the cache (materializing a million clients through
// an LRU would just thrash it).
func (pr *Provider) Materialize() *Federation {
	fed := &Federation{Profile: pr.profile, Alpha: pr.cfg.Alpha}
	fed.Train = make([][]nn.Sample, pr.cfg.Clients)
	fed.LocalTest = make([][]nn.Sample, pr.cfg.Clients)
	for i := 0; i < pr.cfg.Clients; i++ {
		s := pr.Derive(i)
		fed.Train[i] = s.Train
		fed.LocalTest[i] = s.LocalTest
	}
	fed.GlobalTest = pr.globalTest
	return fed
}
