package fl

import (
	"floatfl/internal/data"
	"floatfl/internal/nn"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// trainContext is the simulator's per-worker scratch for TrainLocal: one
// local model clone plus the buffers and update-transform stream a client
// round needs, and the buffer a lazy population derives the client's shard
// into (overwritten by the worker's next job, so no shard outlives the job
// it was derived for). Contexts are created empty and populated lazily on
// first use, then reused for every subsequent client round that worker
// executes — so steady-state rounds allocate nothing.
//
// A context belongs to exactly one worker goroutine for the duration of a
// fan-out; the pool itself is only grown on the single-threaded dispatch
// pass (contextPool.ensure).
type trainContext struct {
	local     *nn.Model        // reusable local model, re-loaded per client
	applied   tensor.Vector    // before + transformed delta scratch
	updateRNG *rngstate.Source // update-transform stream, reseeded per client
	shard     data.ShardBuf    // the job's derived shard (lazy populations)
}

// GradClip bounds each gradient component in local training, in the
// simulator and in floatd's clients alike; the snapshot fingerprint
// records it as grad_clip.
const GradClip = 5

// reseed readies the context for the simulated client round (round,
// clientID) and returns what the simulator hands TrainLocal: cfg's
// training configuration seeded by trainSeed, and the context's
// update-transform stream reseeded from the same seed — the stream a fresh
// rngstate.New(seed) would produce, math/rand's for that seed, in O(1) and
// without allocating. The model and scratch for proto's
// architecture are built on first use.
func (c *trainContext) reseed(proto *nn.Model, cfg Config, round, clientID int) (nn.TrainConfig, *rngstate.Source) {
	if c.local == nil {
		c.local = proto.Clone()
		c.applied = tensor.NewVector(proto.NumParams())
	}
	seed := trainSeed(cfg, round, clientID)
	if c.updateRNG == nil {
		c.updateRNG = rngstate.New(seed ^ updateRNGSalt)
	} else {
		c.updateRNG.Seed(seed ^ updateRNGSalt)
	}
	return nn.TrainConfig{
		Epochs:    cfg.Epochs,
		BatchSize: cfg.BatchSize,
		LR:        cfg.LR,
		GradClip:  GradClip,
		ProxMu:    cfg.ProxMu,
		Seed:      seed,
	}, c.updateRNG
}

// trainJob is a fan-out job's training of slot s: the client's shard
// derived into the worker's buffer, then TrainLocal from before into the
// job's delta buffer, with the number of samples derived.
func (r *run) trainJob(worker, job int, s *slot, before tensor.Vector) {
	r.eo.trainCalls.Inc()
	ctx := r.pool.ctx(worker)
	shard := r.p.ShardInto(s.id, &ctx.shard)
	tc, rng := ctx.reseed(r.global, r.cfg, s.round, s.id)
	s.lt, s.err = TrainLocal(ctx.local, before, r.pool.delta(job), ctx.applied, shard.Train, shard.LocalTest, s.tech, tc, rng)
	s.derived, s.trained = len(shard.Train)+len(shard.LocalTest), s.err == nil
}

// contextPool owns the engines' reusable training state: one trainContext
// per worker (models and scratch follow the worker, whichever jobs it
// steals) and one delta buffer per fan-out job — a sync round's slot, or a
// FedBuff barrier's trainable slot — since a delta must survive until the
// shared collect pass consumes it, after the whole fan-out completes; plus
// the buffer FedBuff's launcher sizes clients with on the dispatch thread.
//
// ensure must be called on the single-threaded pass before each fan-out;
// workers then access disjoint contexts (by worker index) and disjoint
// delta buffers (by job index) without synchronization.
type contextPool struct {
	proto   *nn.Model
	workers []*trainContext
	deltas  []tensor.Vector
	sizing  data.ShardBuf
}

func newContextPool(proto *nn.Model) *contextPool {
	return &contextPool{proto: proto}
}

// ensure grows the pool to at least `workers` contexts and `jobs` delta
// buffers. Contexts start empty (their model is built on first use), so
// over-provisioned workers cost nothing.
func (p *contextPool) ensure(workers, jobs int) {
	for len(p.workers) < workers {
		p.workers = append(p.workers, &trainContext{})
	}
	for len(p.deltas) < jobs {
		p.deltas = append(p.deltas, tensor.NewVector(p.proto.NumParams()))
	}
}

func (p *contextPool) ctx(worker int) *trainContext { return p.workers[worker] }
func (p *contextPool) delta(job int) tensor.Vector  { return p.deltas[job] }
