package data

import (
	"fmt"
	"math"
	"math/rand"
	"slices"

	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
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
	return int64(z >> 1) // rngstate.New accepts any seed; keep it positive for readability
}

// Reserved pseudo-client IDs for the federation's shared streams.
const (
	centersStreamID    = -1
	globalTestStreamID = -2
)

// ClientShard is one client's lazily-derived data: its training set and
// local test split. Callers must not mutate the samples; a shard derived
// into a ShardBuf lives only until the buffer's next derivation.
type ClientShard struct {
	Train     []nn.Sample
	LocalTest []nn.Sample
}

// ShardBuf is reusable backing for DeriveInto: the sample headers, the
// feature slab, the label-distribution scratch and the client stream, each
// grown to the largest shard seen and then reused, so a warmed buffer
// derives without allocating. The zero value is ready to use; a buffer
// belongs to one goroutine at a time.
type ShardBuf struct {
	samples []nn.Sample
	slab    []float64
	dist    []float64
	rng     *rand.Rand
}

// checkAlpha rejects a NaN Dirichlet concentration. NaN passes the
// `<= 0` default and would reach sampleGamma, whose rejection loop never
// accepts a draw for it. +Inf is a valid limit (uniform label mix).
func checkAlpha(alpha float64) error {
	if math.IsNaN(alpha) {
		return fmt.Errorf("data: Alpha must be a number, got NaN")
	}
	return nil
}

// normalizeGenerate applies Generate's defaulting rule so the lazy and
// eager paths agree on the effective alpha.
func normalizeGenerate(cfg GenerateConfig) GenerateConfig {
	if cfg.Alpha <= 0 {
		cfg.Alpha = 0.1
	}
	return cfg
}

// DeriveCenters derives the federation's shared class centers from the
// seed's dedicated stream. All clients of a federation share one centers
// slice; the vectors are immutable after derivation.
func DeriveCenters(p Profile, seed int64) []tensor.Vector {
	rng := rand.New(rngstate.New(ClientSeed(seed, centersStreamID)))
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
// from one slab: both come from buf, which grows them when they are too
// small. The explicit float64 conversion rounds the noise term before the
// add on every architecture, as storing it in a scratch vector used to.
func deriveSamples(p Profile, centers []tensor.Vector, n int, class func(s int) int, rng *rand.Rand, buf *ShardBuf) []nn.Sample {
	buf.samples, buf.slab = slices.Grow(buf.samples[:0], n), slices.Grow(buf.slab[:0], n*p.Dim)
	out, slab := buf.samples[:n:n], buf.slab[:n*p.Dim]
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
	return deriveInto(p, normalizeGenerate(cfg), centers, id, &ShardBuf{})
}

// deriveInto is DeriveClient for a normalized cfg, drawn into buf.
func deriveInto(p Profile, cfg GenerateConfig, centers []tensor.Vector, id int, buf *ShardBuf) ClientShard {
	n, rng := drawVolume(p, cfg, id, buf)
	nTest := max(int(math.Round(float64(n)*localTestFraction)), 2)
	all := deriveSamples(p, centers, n+nTest, func(int) int { return sampleCategorical(buf.dist, rng) }, rng, buf)
	// One backing array, two views: clip Train so it cannot grow into
	// LocalTest.
	return ClientShard{Train: all[:n:n], LocalTest: all[n:]}
}

// drawVolume reseeds buf's stream, in O(1), to client id's — the one
// rand.New(rngstate.New(ClientSeed(cfg.Seed, id))) yields — and makes the
// draws every shard starts with: the label distribution, left in buf.dist,
// and the training-sample count, returned with the stream.
func drawVolume(p Profile, cfg GenerateConfig, id int, buf *ShardBuf) (int, *rand.Rand) {
	if buf.rng == nil {
		buf.rng = rand.New(rngstate.New(0))
	}
	buf.rng.Seed(ClientSeed(cfg.Seed, int64(id)))
	buf.dist = sampleDirichletInto(slices.Grow(buf.dist[:0], p.Classes)[:p.Classes], cfg.Alpha, buf.rng)
	return sampleClientVolume(p.MeanSamplesPerClient, buf.rng), buf.rng
}

// DeriveGlobalTest derives the class-balanced holdout from its dedicated
// stream.
func DeriveGlobalTest(p Profile, seed int64, centers []tensor.Vector) []nn.Sample {
	rng := rand.New(rngstate.New(ClientSeed(seed, globalTestStreamID)))
	return deriveSamples(p, centers, p.TestSamples, func(s int) int { return s % p.Classes }, rng, &ShardBuf{})
}

// Provider is the pure deriver of a federation's data: the immutable
// parameters — profile, normalized config, shared class centers — from which
// any client's shard follows as a function of (seed, clientID), plus the
// global test set. It is the lazy counterpart of Generate: deriving every
// client produces the federation Materialize returns, but a round that
// derives only selected clients costs O(selected), not O(population).
//
// A Provider holds no cache and nothing mutable: every method is safe from
// any number of goroutines (DeriveInto and ShardSize write only the
// caller's buffer). No shard stays resident past the job that uses it.
type Provider struct {
	profile    Profile
	cfg        GenerateConfig
	centers    []tensor.Vector
	globalTest []nn.Sample
}

// NewProvider derives the shared state — class centers and the global test
// set — eagerly; nothing per-client.
func NewProvider(profileName string, cfg GenerateConfig) (*Provider, error) {
	p, err := LookupProfile(profileName)
	if err != nil {
		return nil, err
	}
	if cfg.Clients <= 0 {
		return nil, fmt.Errorf("data: provider requires positive client count, got %d", cfg.Clients)
	}
	if err := checkAlpha(cfg.Alpha); err != nil {
		return nil, err
	}
	cfg = normalizeGenerate(cfg)
	centers := DeriveCenters(p, cfg.Seed)
	return &Provider{
		profile:    p,
		cfg:        cfg,
		centers:    centers,
		globalTest: DeriveGlobalTest(p, cfg.Seed, centers),
	}, nil
}

// Profile returns the dataset profile.
func (pr *Provider) Profile() Profile { return pr.profile }

// GlobalTest returns the shared class-balanced holdout.
func (pr *Provider) GlobalTest() []nn.Sample { return pr.globalTest }

// DeriveInto derives client id's shard into buf's backing, bit-identical to
// DeriveClient; a nil buf derives into fresh backing. The shard aliases buf
// and is overwritten by buf's next derivation.
func (pr *Provider) DeriveInto(id int, buf *ShardBuf) ClientShard {
	if buf == nil {
		buf = &ShardBuf{}
	}
	return deriveInto(pr.profile, pr.cfg, pr.centers, id, buf)
}

// ShardSize returns client id's training-sample count — only the label-
// distribution and volume draws, no sample synthesized — at a tiny
// fraction of a full derivation's cost, using buf's stream and label
// scratch. It always equals len(DeriveInto(id, nil).Train).
func (pr *Provider) ShardSize(id int, buf *ShardBuf) int {
	n, _ := drawVolume(pr.profile, pr.cfg, id, buf)
	return n
}

// MeanShardSize estimates the population's mean shard size, floored at 1,
// from a strided deterministic sample of at most sampleCap ≥ 1 clients'
// size draws (ShardSize: no sample is synthesized). The estimate is
// exact for populations within the cap.
func (pr *Provider) MeanShardSize(sampleCap int) int {
	n := pr.cfg.Clients
	count, total := min(n, sampleCap), 0
	var buf ShardBuf
	for i := 0; i < count; i++ {
		total += pr.ShardSize(i*n/count, &buf)
	}
	return max(total/count, 1)
}

// Materialize eagerly derives every client into a Federation — the
// adapter that lets lazy populations feed any API still wanting dense
// arrays, and the oracle the order-independence tests compare against.
func (pr *Provider) Materialize() *Federation {
	fed := &Federation{Profile: pr.profile, Alpha: pr.cfg.Alpha}
	fed.Train = make([][]nn.Sample, pr.cfg.Clients)
	fed.LocalTest = make([][]nn.Sample, pr.cfg.Clients)
	for i := 0; i < pr.cfg.Clients; i++ {
		s := pr.DeriveInto(i, nil)
		fed.Train[i] = s.Train
		fed.LocalTest[i] = s.LocalTest
	}
	fed.GlobalTest = pr.globalTest
	return fed
}
