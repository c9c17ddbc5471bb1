package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// ServerConfig parameterizes the aggregator.
type ServerConfig struct {
	Spec TrainSpec
	// AggregateK aggregates once this many updates arrive for the current
	// round (default 4).
	AggregateK int
	// MaxOutstanding bounds how many clients may hold a task for the same
	// round (over-provisioning against dropouts; default 2×AggregateK).
	MaxOutstanding int
	// Controller decides per-client techniques; nil means no acceleration.
	Controller fl.Controller
	// Holdout is evaluated after each aggregation when non-empty: version r
	// is evaluated in the background while round r+1 trains, and every read
	// of the accuracy (and of the timeline row it completes) waits for that
	// evaluation first, so readers see what a synchronous evaluation shows.
	Holdout []nn.Sample
	// DeadlineSeconds is advertised to clients with each task (advisory;
	// the lease below is what the server actually enforces).
	DeadlineSeconds float64
	// LeaseSeconds bounds how long a handed-out task may stay outstanding
	// before its slot is reclaimed and the dropout reported to the
	// Controller (default 2×DeadlineSeconds, or 30s without a deadline).
	// Zero after defaulting means leases never expire.
	LeaseSeconds float64
	// RoundSeconds bounds how long a round may run below AggregateK before
	// the buffered updates are aggregated anyway (default 2×LeaseSeconds).
	RoundSeconds float64
	// MinUpdates is the floor for a timer-driven partial aggregation
	// (default 1); a round never advances on an empty buffer.
	MinUpdates int
	// Clock drives leases and the round timer; nil means the real clock.
	// Tests inject a FakeClock so expiry is deterministic.
	Clock Clock
	Seed  int64
	// Metrics backs the server's operational counters and the /v1/metrics
	// endpoint. Nil gets a private registry — the counters must exist
	// regardless because /v1/status reads them.
	Metrics *obs.Registry
	// Tracer records server-side events (register, lease_grant,
	// lease_expiry, update, round_timer, aggregate) timestamped against
	// Clock; nil disables tracing.
	Tracer *obs.Tracer
}

// Server is the HTTP aggregator. All state is guarded by mu; handlers and
// timer callbacks are safe for concurrent use. Handlers hold mu only to
// read and change that state: bodies are read and decoded before it is
// taken and responses are written after it is released, so what one peer
// sends, or how slowly it reads, costs the others nothing.
//
// The holdout evaluation of each model version runs outside mu, beside the
// next round (see pendingEval). Whatever reads its result or writes the
// model joins it first: the next aggregation, Snapshot, RestoreSnapshot,
// Close, HoldoutAccuracy, Timeline and GET /v1/status, /v1/metrics and
// /v1/timeline. The register, task, update and drain handlers and the
// timers do not wait for it.
type Server struct {
	mu sync.Mutex

	cfg    ServerConfig
	clock  Clock
	global *nn.Model
	// modelBlob is global in wire form, marshalled by the first task of
	// each model version and immutable from then on — handlers write it to
	// sockets after releasing mu. Whatever changes the model (aggregation,
	// a restore) drops it; nothing edits it.
	modelBlob []byte
	// maxBody bounds every request body (maxBodyBytes of the model size,
	// which a restore cannot change).
	maxBody int64
	round   int
	closed  bool
	// draining stops new task hand-outs (POST /v1/drain) so outstanding
	// work converges to zero ahead of a GET /v1/snapshot.
	draining bool

	nextClientID int
	clients      map[int]*clientInfo
	// byName maps client name → ID so re-registration (a retry after a
	// dropped response) is idempotent instead of leaking clientInfos.
	byName map[string]int

	// outstanding counts tasks handed out for the current round.
	outstanding int
	// buffer of (delta, weight) pending aggregation.
	deltas  []tensor.Vector
	weights []float64
	// deltaPool recycles the model-sized vectors updates are decoded into
	// (a restore cannot change that size): taken before mu, returned on
	// rejection or after aggregation.
	deltaPool sync.Pool

	roundTimer Timer
	roundSeq   uint64

	// obs owns every operational counter (updates, lease expiries,
	// partial aggregations, drops); /v1/status reads them back so status
	// and /v1/metrics can never disagree. start anchors trace timestamps.
	obs        *serverObs
	metrics    *obs.Registry
	start      time.Time
	holdoutAcc float64
	// pending is the last aggregation's holdout evaluation and timeline
	// row, not yet joined; nil once joinLocked has committed them.
	pending *pendingEval

	// timeline records one delta-encoded registry sample per aggregation,
	// served incrementally by GET /v1/timeline and carried through
	// /v1/snapshot so a resumed server extends the same run history.
	timeline *obs.Timeline
}

type clientInfo struct {
	name string
	// dev is a capability-only shim so fl.Controller implementations see
	// the same type they see in the simulator.
	dev *device.Client
	// taskRound is the round the client currently holds a task for
	// (-1 when idle).
	taskRound int
	tech      opt.Technique

	// leaseSeq invalidates stale lease-timer callbacks; leaseTimer is the
	// pending expiry for the currently held task (nil when idle).
	leaseSeq    uint64
	leaseTimer  Timer
	leaseExpiry time.Time
}

// newClientInfo is an idle registration; the self-reported capability is
// clamped like every other self-report.
func newClientInfo(id int, name string, gflops, memoryMB float64) *clientInfo {
	return &clientInfo{
		name: name,
		dev: &device.Client{
			ID: id,
			Compute: trace.ComputeProfile{
				GFLOPS:         clampFinite(gflops, 0.1, 1e4, 10),
				MemoryMB:       clampFinite(memoryMB, 16, 1e6, 2000),
				EnergyCapacity: 2,
			},
		},
		taskRound: -1,
	}
}

// NewServer builds an aggregator with a freshly initialized global model.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Spec.Arch == "" || cfg.Spec.InDim <= 0 || cfg.Spec.Classes <= 0 {
		return nil, fmt.Errorf("dist: incomplete TrainSpec %+v", cfg.Spec)
	}
	// The defaults below test `<= 0`, which NaN passes; LR and the
	// deadline and lease go out in JSON, which cannot carry NaN or ±Inf.
	for _, f := range []struct {
		name string
		v    float64
	}{{"Spec.LR", cfg.Spec.LR}, {"DeadlineSeconds", cfg.DeadlineSeconds},
		{"LeaseSeconds", cfg.LeaseSeconds}, {"RoundSeconds", cfg.RoundSeconds}} {
		if math.IsNaN(f.v) || math.IsInf(f.v, 0) {
			return nil, fmt.Errorf("dist: %s must be finite, got %v", f.name, f.v)
		}
	}
	if cfg.Spec.Epochs <= 0 {
		cfg.Spec.Epochs = 2
	}
	if cfg.Spec.BatchSize <= 0 {
		cfg.Spec.BatchSize = 16
	}
	if cfg.Spec.LR <= 0 {
		cfg.Spec.LR = 0.1
	}
	if cfg.Spec.QuantBits <= 0 {
		cfg.Spec.QuantBits = 16
	}
	if cfg.AggregateK <= 0 {
		cfg.AggregateK = 4
	}
	if cfg.MaxOutstanding <= 0 {
		cfg.MaxOutstanding = 2 * cfg.AggregateK
	}
	if cfg.Controller == nil {
		cfg.Controller = fl.NoOpController{}
	}
	if cfg.LeaseSeconds <= 0 {
		if cfg.DeadlineSeconds > 0 {
			cfg.LeaseSeconds = 2 * cfg.DeadlineSeconds
		} else {
			cfg.LeaseSeconds = 30
		}
	}
	if cfg.RoundSeconds <= 0 {
		cfg.RoundSeconds = 2 * cfg.LeaseSeconds
	}
	if cfg.Clock == nil {
		cfg.Clock = RealClock()
	}
	if cfg.Metrics == nil {
		cfg.Metrics = obs.NewRegistry()
	}
	global, err := nn.NewModel(cfg.Spec.Arch, cfg.Spec.InDim, cfg.Spec.Classes, rngstate.New(cfg.Seed))
	if err != nil {
		return nil, err
	}
	s := &Server{
		cfg:     cfg,
		clock:   cfg.Clock,
		global:  global,
		maxBody: maxBodyBytes(global.NumParams()),
		clients: make(map[int]*clientInfo),
		byName:  make(map[string]int),
		obs:     newServerObs(cfg.Metrics, cfg.Tracer),
		metrics: cfg.Metrics,
		start:   cfg.Clock.Now(),
	}
	numParams := global.NumParams()
	s.deltaPool.New = func() interface{} { return tensor.NewVector(numParams) }
	s.timeline = obs.NewTimeline(cfg.Metrics, obs.DefaultTimelineCapacity)
	s.mu.Lock()
	s.armRoundTimerLocked()
	s.syncGaugesLocked()
	s.mu.Unlock()
	return s, nil
}

// Handler returns the server's HTTP routes.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/v1/register", s.handleRegister)
	mux.HandleFunc("/v1/task", s.handleTask)
	mux.HandleFunc("/v1/update", s.handleUpdate)
	mux.HandleFunc("/v1/status", s.handleStatus)
	mux.HandleFunc("/v1/metrics", s.handleMetrics)
	timeline := obs.TimelineHandler(s.timeline)
	mux.HandleFunc("/v1/timeline", func(w http.ResponseWriter, r *http.Request) {
		s.settle()
		timeline.ServeHTTP(w, r)
	})
	mux.HandleFunc("/v1/snapshot", s.handleSnapshot)
	mux.HandleFunc("/v1/drain", s.handleDrain)
	return mux
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	// Idempotent per name: a client retrying a register whose response was
	// lost must get its existing identity back, not a leaked duplicate.
	if req.Name != "" {
		if id, ok := s.byName[req.Name]; ok {
			spec := s.cfg.Spec
			s.mu.Unlock()
			writeJSON(w, RegisterResponse{ClientID: id, Spec: spec})
			return
		}
	}
	id := s.nextClientID
	s.nextClientID++
	s.obs.registrations.Inc()
	s.eventLocked("register", s.round, id, req.Name)
	s.clients[id] = newClientInfo(id, req.Name, req.GFLOPS, req.MemoryMB)
	if req.Name != "" {
		s.byName[req.Name] = id
	}
	s.syncGaugesLocked()
	spec := s.cfg.Spec
	s.mu.Unlock()
	writeJSON(w, RegisterResponse{ClientID: id, Spec: spec})
}

func (s *Server) handleTask(w http.ResponseWriter, r *http.Request) {
	var req TaskRequest
	if !s.decode(w, r, &req) {
		return
	}
	req.Resources = req.Resources.sanitized()
	task, status, err := s.assignTask(req)
	switch {
	case err != nil:
		http.Error(w, err.Error(), status)
	case status != http.StatusOK:
		w.WriteHeader(status)
	default:
		// The frame's meta goes out of a pooled buffer, and its blob
		// straight from the shared model bytes, uncopied.
		bp := bodyPool.Get().(*[]byte)
		defer bodyPool.Put(bp)
		if *bp, err = appendFrame((*bp)[:0], task, nil); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
		// The length is declared so the client can size its read buffer
		// once instead of growing it chunk by chunk.
		w.Header().Set("Content-Type", frameType)
		w.Header().Set("Content-Length", strconv.Itoa(len(*bp)+len(task.Model)))
		if _, err := w.Write(*bp); err == nil {
			_, _ = w.Write(task.Model)
		}
	}
}

// assignTask is the locked half of handleTask: it grants (or re-issues)
// this round's task and returns what to send — a task and 200, a bare 204
// when there is no slot, or an error with its status.
func (s *Server) assignTask(req TaskRequest) (TaskResponse, int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, ok := s.clients[req.ClientID]
	if !ok {
		return TaskResponse{}, http.StatusNotFound, errors.New("dist: unknown client")
	}
	if ci.taskRound == s.round {
		// Already holds this round's task; re-issue idempotently and renew
		// the lease (the client is demonstrably alive). Drain mode does not
		// block re-issues — a drain must not strand a mid-training client.
		s.grantLeaseLocked(req.ClientID, ci)
	} else if s.draining || s.outstanding >= s.cfg.MaxOutstanding {
		return TaskResponse{}, http.StatusNoContent, nil
	} else {
		res := req.Resources.toResources()
		ci.tech = s.cfg.Controller.Decide(s.round, ci.dev, res, req.Resources.DeadlineDiff)
		ci.taskRound = s.round
		s.outstanding++
		s.grantLeaseLocked(req.ClientID, ci)
	}
	s.syncGaugesLocked()
	blob, err := s.modelBlobLocked()
	if err != nil {
		return TaskResponse{}, http.StatusInternalServerError, err
	}
	return TaskResponse{
		Round:           s.round,
		Technique:       ci.tech.String(),
		Model:           blob,
		DeadlineSeconds: s.cfg.DeadlineSeconds,
		LeaseSeconds:    s.cfg.LeaseSeconds,
	}, http.StatusOK, nil
}

// modelBlobLocked returns the global model in wire form, marshalling it
// only if this model version has not been marshalled yet. The result is
// shared and must not be written to. Caller holds s.mu.
func (s *Server) modelBlobLocked() ([]byte, error) {
	if s.modelBlob == nil {
		blob, err := s.global.MarshalBinary()
		if err != nil {
			return nil, err
		}
		s.modelBlob = blob
	}
	return s.modelBlob, nil
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	bp, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	defer bodyPool.Put(bp)
	var req UpdateRequest
	blob, err := splitFrame(*bp, &req)
	if err != nil {
		http.Error(w, fmt.Sprintf("dist: bad request: %v", err), http.StatusBadRequest)
		return
	}
	// The delta is decoded and checked here, before mu: the sender chooses
	// the bytes, so the work they cost must not be time every other handler
	// and timer spends waiting. Whether the delta is good is only reported
	// once the locked half has ruled out 404 and 409.
	delta := s.deltaPool.Get().(tensor.Vector)
	status, err := s.acceptUpdate(req, delta, decodeDelta(delta, blob))
	if err != nil {
		s.deltaPool.Put(delta)
		http.Error(w, err.Error(), status)
		return
	}
	w.WriteHeader(http.StatusOK)
}

// decodeDelta decompresses an update's blob into dst (whose length is the
// model's) and rejects what must never reach the global model.
func decodeDelta(dst tensor.Vector, blob []byte) error {
	if err := opt.DecompressUpdateInto(dst, blob); err != nil {
		if errors.Is(err, opt.ErrLengthMismatch) {
			return errors.New("dist: delta size mismatch")
		}
		return err
	}
	if !fl.IsFinite(dst) {
		// A diverged or malicious client must not poison the global model;
		// the same guard the simulator's aggregator applies.
		return errors.New("dist: non-finite update rejected")
	}
	return nil
}

// acceptUpdate is the locked half of handleUpdate: it buffers delta for
// the current round and aggregates once AggregateK have arrived. deltaErr
// is decodeDelta's verdict, reported (as a 400) only for a client that is
// known and whose round is current. A non-nil error means nothing was
// changed and delta is the caller's again.
func (s *Server) acceptUpdate(req UpdateRequest, delta tensor.Vector, deltaErr error) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, ok := s.clients[req.ClientID]
	if !ok {
		return http.StatusNotFound, errors.New("dist: unknown client")
	}
	if req.Round != s.round || ci.taskRound != s.round {
		// Stale update from a previous round, or from a lease the server
		// already reclaimed: reject so the client refreshes.
		return http.StatusConflict, errors.New("dist: stale round")
	}
	if deltaErr != nil {
		return http.StatusBadRequest, deltaErr
	}
	ci.taskRound = -1
	s.stopLeaseLocked(ci)
	s.outstanding--
	s.obs.updates.Inc()
	s.eventLocked("update", s.round, req.ClientID, "")
	// The aggregation weight is self-reported too: clamped, so that no one
	// client's claim can own the weighted mean.
	weight := clampFinite(float64(req.Samples), 1, maxUpdateSamples, 1)
	s.deltas = append(s.deltas, delta)
	s.weights = append(s.weights, weight)

	// Feed the controller: a returned update is a successful participation.
	// Self-reported reward fields are clamped like the resource report.
	s.cfg.Controller.Feedback(s.round, ci.dev, ci.tech,
		device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: clampFinite(req.TrainSecs, 0, 1e6, 0)}},
		clampReward(req.AccImprove))

	if len(s.deltas) >= s.cfg.AggregateK {
		s.aggregateLocked()
	}
	s.syncGaugesLocked()
	return http.StatusOK, nil
}

// aggregateLocked applies the buffered weighted deltas and advances the
// round. Clients still holding tasks for the old round will get a 409 on
// upload and re-fetch — the deployment analog of a deadline dropout, which
// is also reported to the controller.
func (s *Server) aggregateLocked() {
	s.joinLocked()
	aggregated := len(s.deltas)
	// The simulator's apply compacts s.deltas in place: only the prefix it
	// returns is sure to hold each vector once, so only that goes back to
	// the pool.
	for _, d := range fl.ApplyAggregate(s.global, s.deltas, s.weights) {
		s.deltaPool.Put(d)
	}
	s.modelBlob = nil
	s.deltas = s.deltas[:0]
	s.weights = s.weights[:0]
	s.eventLocked("aggregate", s.round, -1, "")
	s.obs.rounds.Inc()
	s.round++
	s.outstanding = 0
	// Sweep stale task holders in client-ID order: trace emission and
	// controller feedback are order-sensitive, so map iteration order must
	// not reach them.
	for _, id := range checkpoint.SortedKeys(s.clients) {
		ci := s.clients[id]
		if ci.taskRound < 0 || ci.taskRound >= s.round {
			continue
		}
		// The round moved on without this client: count it as a deadline
		// miss so FLOAT learns from it.
		s.obs.drops[int(device.DropDeadline)].Inc()
		s.eventLocked("drop", ci.taskRound, id, device.DropDeadline.String())
		s.cfg.Controller.Feedback(ci.taskRound, ci.dev, ci.tech,
			device.Outcome{Completed: false, Reason: device.DropDeadline, DeadlineDiff: 0.5}, 0)
		ci.taskRound = -1
		s.stopLeaseLocked(ci)
	}
	s.armRoundTimerLocked()
	s.syncGaugesLocked()
	// The timeline row for the round that just closed (s.round-1; the
	// counter already advanced) is the post-aggregation registry, taken
	// now and committed when the evaluation is joined. Timestamped on the
	// injected clock, so a FakeClock makes the timeline deterministic.
	p := &pendingEval{
		round:      s.round - 1,
		clock:      s.clock.Now().Sub(s.start).Seconds(),
		snap:       s.metrics.Snapshot(),
		aggregated: aggregated,
	}
	if len(s.cfg.Holdout) > 0 {
		p.acc = make(chan float64, 1)
		go func(global *nn.Model, holdout []nn.Sample) {
			acc := global.Evaluate(holdout)
			p.acc <- acc
		}(s.global, s.cfg.Holdout)
	}
	s.pending = p
}

// pendingEval is one aggregation's deferred tail: the holdout evaluation
// of the version it produced and the timeline row that reports it.
//
// The evaluation reads s.global in place, without a copy and without
// taking mu. That is sound because while an evaluation is pending s.global
// is only read, and only through its parameters (MarshalBinary for the
// task blob, NumParams); every writer of the model — aggregateLocked and
// RestoreSnapshot — joins first. Joining under mu cannot deadlock, since
// the only lock the evaluation takes is nn's minibatch free list, held
// for a slice push or pop and never while waiting on anything.
type pendingEval struct {
	round      int
	clock      float64
	snap       obs.Snapshot
	aggregated int
	// acc receives the accuracy (buffered, so the evaluation never waits
	// for its join); nil when the server has no holdout.
	acc chan float64
}

// joinLocked waits for the pending evaluation, if any, and commits what it
// completes: the accuracy, its gauge, and the timeline row. The row is the
// snapshot taken at aggregation with dist_holdout_acc patched to the new
// accuracy, which is byte for byte the row an evaluation under mu at
// aggregation time would have sampled. Caller holds s.mu.
func (s *Server) joinLocked() {
	p := s.pending
	if p == nil {
		return
	}
	s.pending = nil
	extra := []obs.SeriesValue{{Name: "round_aggregated_updates", Value: float64(p.aggregated)}}
	if p.acc != nil {
		s.holdoutAcc = <-p.acc
		s.obs.holdoutAcc.Set(s.holdoutAcc)
		extra = append(extra, obs.SeriesValue{Name: "dist_holdout_acc", Value: s.holdoutAcc})
	}
	s.timeline.SampleFrom(p.snap, p.round, p.clock, extra...)
}

// settle joins the pending evaluation for a reader that does not otherwise
// take s.mu.
func (s *Server) settle() {
	s.mu.Lock()
	s.joinLocked()
	s.mu.Unlock()
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	s.joinLocked()
	// Counters come straight off the metrics registry: /v1/status is a
	// projection of /v1/metrics, so the two can never drift apart.
	drops := make(map[string]int, numDropReasons)
	for reason := device.DropNone; reason <= device.DropDeadline; reason++ {
		if n := s.obs.dropReasonCount(reason); n > 0 {
			drops[reason.String()] = n
		}
	}
	activeLeases := 0
	for _, ci := range s.clients {
		if ci.leaseTimer != nil {
			activeLeases++
		}
	}
	resp := StatusResponse{
		Draining:            s.draining,
		Round:               s.round,
		Registered:          len(s.clients),
		HoldoutAcc:          s.holdoutAcc,
		UpdatesSeen:         int(s.obs.updates.Value()),
		Outstanding:         s.outstanding,
		BufferedUpdates:     len(s.deltas),
		ActiveLeases:        activeLeases,
		LeaseExpiries:       int(s.obs.leaseExpiries.Value()),
		PartialAggregations: int(s.obs.partialAggs.Value()),
		Drops:               drops,
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}

// handleMetrics serves the registry exposition: text by default, the
// JSON snapshot with ?format=json or an Accept: application/json header.
// Unknown ?format= values get a 400 with a typed JSON error body.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		obs.WriteHTTPError(w, http.StatusMethodNotAllowed, "GET required")
		return
	}
	s.mu.Lock()
	s.joinLocked()
	snap := s.metrics.Snapshot()
	s.mu.Unlock()
	obs.ServeMetricsSnapshot(w, r, snap)
}

// Round returns the current aggregation round.
func (s *Server) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// HoldoutAccuracy returns the holdout accuracy of the current model
// version, waiting for its evaluation if it is still running.
func (s *Server) HoldoutAccuracy() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.joinLocked()
	return s.holdoutAcc
}

// LeaseExpiries returns how many handed-out tasks died silently and were
// reclaimed by lease expiry.
func (s *Server) LeaseExpiries() int {
	return int(s.obs.leaseExpiries.Value())
}

// PartialAggregations returns how many rounds were advanced by the round
// timer with fewer than AggregateK updates.
func (s *Server) PartialAggregations() int {
	return int(s.obs.partialAggs.Value())
}

// Metrics exposes the server's registry (the same one /v1/metrics
// serves), for embedding CLIs and tests. Its dist_holdout_acc gauge is set
// when an evaluation is joined, so a direct read may see the previous
// version's accuracy; /v1/metrics joins first.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Timeline exposes the per-aggregation run timeline (the same ring
// /v1/timeline serves), for embedding CLIs and tests. It joins the pending
// evaluation first, so the ring holds the row of every aggregation so far.
func (s *Server) Timeline() *obs.Timeline {
	s.settle()
	return s.timeline
}

// maxBodyBytes bounds a body, in either direction, by the largest
// legitimate one. The task response is the model — 8 bytes per parameter
// and an 8-byte count — behind its frame meta; the largest update is the
// codec's worst case (13-byte header, a 5-byte varint per parameter at 32
// bits) behind its own. Both metas are a few hundred bytes, so 64 KiB on
// top of 8 bytes per parameter is generous room for either.
func maxBodyBytes(numParams int) int64 { return 8*int64(numParams) + 64<<10 }

// bodyPool recycles the buffers request bodies are read into and task
// frames are built in.
var bodyPool = sync.Pool{New: func() interface{} { return new([]byte) }}

// readRequest reads a POST body of at most maxBodyBytes into a pooled
// buffer, which the caller returns to bodyPool once done with the bytes. On
// failure it has written the status — 405, 413 for an oversized body, 400
// for one that could not be read — and returned the buffer itself, and the
// handler must return without touching server state.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (*[]byte, bool) {
	if r.Method != http.MethodPost {
		http.Error(w, "dist: POST required", http.StatusMethodNotAllowed)
		return nil, false
	}
	bp := bodyPool.Get().(*[]byte)
	var err error
	*bp, err = readBody(*bp, http.MaxBytesReader(w, r.Body, s.maxBody), r.ContentLength, s.maxBody)
	if err != nil {
		bodyPool.Put(bp)
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("dist: bad request: %v", err), status)
		return nil, false
	}
	return bp, true
}

// decode reads a JSON POST body into v; on failure it has written the
// status (readRequest's, or 400 for malformed JSON) and the handler must
// return without touching server state.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	bp, ok := s.readRequest(w, r)
	if !ok {
		return false
	}
	defer bodyPool.Put(bp)
	if err := json.Unmarshal(*bp, v); err != nil {
		http.Error(w, fmt.Sprintf("dist: bad request: %v", err), http.StatusBadRequest)
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	if err := json.NewEncoder(w).Encode(v); err != nil {
		// Headers are already out; nothing more to do.
		_ = err
	}
}

// maxUpdateSamples caps the sample count an update may claim as its
// aggregation weight.
const maxUpdateSamples = 1e6

// clampFinite sanitizes a client-supplied numeric field: non-finite or
// non-positive values fall back to def, finite values are clamped into
// [lo, hi]. (NaN fails every comparison, so a bare `x <= 0` check would
// wave NaN straight through into the cost model.)
func clampFinite(x, lo, hi, def float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) || x <= 0 {
		return def
	}
	if x < lo {
		return lo
	}
	if x > hi {
		return hi
	}
	return x
}

// clampReward bounds the self-reported accuracy improvement to a sane
// range so one malformed report cannot dominate the RL reward stream.
func clampReward(x float64) float64 {
	if math.IsNaN(x) || math.IsInf(x, 0) {
		return 0
	}
	if x < -1 {
		return -1
	}
	if x > 1 {
		return 1
	}
	return x
}
