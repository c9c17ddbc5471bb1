package dist

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"sort"
	"sync"
	"time"

	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
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
	// Holdout is evaluated after each aggregation when non-empty.
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
// timer callbacks are safe for concurrent use.
type Server struct {
	mu sync.Mutex

	cfg    ServerConfig
	clock  Clock
	global *nn.Model
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

	roundTimer Timer
	roundSeq   uint64

	// obs owns every operational counter (updates, lease expiries,
	// partial aggregations, drops); /v1/status reads them back so status
	// and /v1/metrics can never disagree. start anchors trace timestamps.
	obs        *serverObs
	metrics    *obs.Registry
	start      time.Time
	holdoutAcc float64

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

// NewServer builds an aggregator with a freshly initialized global model.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.Spec.Arch == "" || cfg.Spec.InDim <= 0 || cfg.Spec.Classes <= 0 {
		return nil, fmt.Errorf("dist: incomplete TrainSpec %+v", cfg.Spec)
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
	rng := newRand(cfg.Seed)
	global, err := nn.NewModel(cfg.Spec.Arch, cfg.Spec.InDim, cfg.Spec.Classes, rng)
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
	mux.Handle("/v1/timeline", obs.TimelineHandler(s.timeline))
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
	s.clients[id] = &clientInfo{
		name: req.Name,
		dev: &device.Client{
			ID: id,
			Compute: trace.ComputeProfile{
				GFLOPS:         clampFinite(req.GFLOPS, 0.1, 1e4, 10),
				MemoryMB:       clampFinite(req.MemoryMB, 16, 1e6, 2000),
				EnergyCapacity: 2,
			},
		},
		taskRound: -1,
	}
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
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, ok := s.clients[req.ClientID]
	if !ok {
		http.Error(w, "dist: unknown client", http.StatusNotFound)
		return
	}
	if ci.taskRound == s.round {
		// Already holds this round's task; re-issue idempotently and renew
		// the lease (the client is demonstrably alive). Drain mode does not
		// block re-issues — a drain must not strand a mid-training client.
		s.grantLeaseLocked(req.ClientID, ci)
	} else if s.draining || s.outstanding >= s.cfg.MaxOutstanding {
		w.WriteHeader(http.StatusNoContent)
		return
	} else {
		res := req.Resources.toResources()
		ci.tech = s.cfg.Controller.Decide(s.round, ci.dev, res, req.Resources.DeadlineDiff)
		ci.taskRound = s.round
		s.outstanding++
		s.grantLeaseLocked(req.ClientID, ci)
	}
	s.syncGaugesLocked()
	blob, err := s.global.MarshalBinary()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	writeJSON(w, TaskResponse{
		Round:           s.round,
		Technique:       ci.tech.String(),
		Model:           blob,
		DeadlineSeconds: s.cfg.DeadlineSeconds,
		LeaseSeconds:    s.cfg.LeaseSeconds,
	})
}

func (s *Server) handleUpdate(w http.ResponseWriter, r *http.Request) {
	var req UpdateRequest
	if !s.decode(w, r, &req) {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	ci, ok := s.clients[req.ClientID]
	if !ok {
		http.Error(w, "dist: unknown client", http.StatusNotFound)
		return
	}
	if req.Round != s.round || ci.taskRound != s.round {
		// Stale update from a previous round, or from a lease the server
		// already reclaimed: reject so the client refreshes.
		http.Error(w, "dist: stale round", http.StatusConflict)
		return
	}
	delta, err := opt.DecompressUpdate(req.Delta)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	if len(delta) != s.global.NumParams() {
		http.Error(w, "dist: delta size mismatch", http.StatusBadRequest)
		return
	}
	for _, x := range delta {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			// A diverged or malicious client must not poison the global
			// model; the same guard the simulator's aggregator applies.
			http.Error(w, "dist: non-finite update rejected", http.StatusBadRequest)
			return
		}
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
		if err := s.aggregateLocked(); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
			return
		}
	}
	s.syncGaugesLocked()
	w.WriteHeader(http.StatusOK)
}

// aggregateLocked applies the buffered weighted deltas and advances the
// round. Clients still holding tasks for the old round will get a 409 on
// upload and re-fetch — the deployment analog of a deadline dropout, which
// is also reported to the controller.
func (s *Server) aggregateLocked() error {
	aggregated := len(s.deltas)
	var totalW float64
	for _, w := range s.weights {
		totalW += w
	}
	if totalW > 0 {
		// Accumulate the weighted mean straight into the global flat buffer
		// (Parameters is a zero-copy view).
		for i := range s.weights {
			s.weights[i] /= totalW
		}
		//lint:allow flat-view-mutation aggregator owns the global model; in-place update is the sanctioned fast path (DESIGN.md buffer ownership)
		tensor.AddWeighted(s.global.Parameters(), s.weights, s.deltas)
	}
	s.deltas = s.deltas[:0]
	s.weights = s.weights[:0]
	s.eventLocked("aggregate", s.round, -1, "")
	s.obs.rounds.Inc()
	s.round++
	s.outstanding = 0
	// Sweep stale task holders in client-ID order: trace emission and
	// controller feedback are order-sensitive, so map iteration order must
	// not reach them.
	stale := make([]int, 0, len(s.clients))
	for id, ci := range s.clients {
		if ci.taskRound >= 0 && ci.taskRound < s.round {
			stale = append(stale, id)
		}
	}
	sort.Ints(stale)
	for _, id := range stale {
		ci := s.clients[id]
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
	if len(s.cfg.Holdout) > 0 {
		s.holdoutAcc, _ = s.global.Evaluate(s.cfg.Holdout)
		s.obs.holdoutAcc.Set(s.holdoutAcc)
	}
	s.syncGaugesLocked()
	// Sample after the gauges are refreshed so the timeline row for the
	// round that just closed (s.round-1; the counter already advanced)
	// reflects the post-aggregation registry. Timestamped on the injected
	// clock, so a FakeClock makes the timeline deterministic in tests.
	s.timeline.Sample(s.round-1, s.clock.Now().Sub(s.start).Seconds(),
		obs.SeriesValue{Name: "round_aggregated_updates", Value: float64(aggregated)})
	return nil
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
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
	obs.ServeMetricsSnapshot(w, r, s.metrics.Snapshot())
}

// Round returns the current aggregation round.
func (s *Server) Round() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.round
}

// HoldoutAccuracy returns the last post-aggregation holdout accuracy.
func (s *Server) HoldoutAccuracy() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
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
// serves), for embedding CLIs and tests.
func (s *Server) Metrics() *obs.Registry { return s.metrics }

// Timeline exposes the per-aggregation run timeline (the same ring
// /v1/timeline serves), for embedding CLIs and tests.
func (s *Server) Timeline() *obs.Timeline { return s.timeline }

// maxBodyBytes bounds a request body by the largest legitimate one: an
// update whose delta is the codec's worst case (13-byte header, a 5-byte
// varint per parameter at 32 bits) base64-encoded inside the JSON envelope
// — under 7 bytes per parameter — plus generous room for the envelope.
func maxBodyBytes(numParams int) int64 { return 8*int64(numParams) + 64<<10 }

// decode reads a POST body of at most maxBodyBytes into v; on failure it has
// written the status — 405, 413 for an oversized body, 400 for a malformed
// one — and the handler must return without touching server state.
func (s *Server) decode(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if r.Method != http.MethodPost {
		http.Error(w, "dist: POST required", http.StatusMethodNotAllowed)
		return false
	}
	body := http.MaxBytesReader(w, r.Body, s.maxBody)
	if err := json.NewDecoder(body).Decode(v); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		http.Error(w, fmt.Sprintf("dist: bad request: %v", err), status)
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
