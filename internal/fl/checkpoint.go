package fl

import (
	"bytes"
	"container/heap"
	"encoding/base64"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"sort"
	"strconv"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/tensor"
)

// Snapshot kinds written by the two engines. Decode enforces them, so a
// sync snapshot can never silently resume an async run (or vice versa).
const (
	SyncSnapshotKind  = "engine-sync"
	AsyncSnapshotKind = "engine-async"
)

// CheckpointConfig wires crash-safe checkpointing into a run. All hooks
// are polled or invoked only at the engines' quiescent boundaries (end of
// round for the sync engine, end of aggregation barrier for the async
// engine), on the engine goroutine — implementations need no locking
// beyond their own if they are shared with other goroutines.
type CheckpointConfig struct {
	// Every snapshots after each N completed rounds (sync) or aggregations
	// (async), counted from round zero — absolute, so a resumed run
	// snapshots on the same schedule as an uninterrupted one. Zero disables
	// periodic snapshots.
	Every int
	// Sink receives each encoded snapshot (a framed, checksummed blob
	// suitable for checkpoint.WriteFile's payload — it is already framed;
	// write it to disk as-is). A snapshot error aborts the run. Nil
	// disables snapshotting entirely (Every and Request are then inert).
	Sink func(snapshot []byte) error
	// Request is polled at every boundary; returning true triggers an
	// immediate snapshot (live /v1/snapshot-style control). Nil means
	// never.
	Request func() bool
	// Stop is polled at every boundary; returning true takes a final
	// snapshot (when Sink is set) and ends the run gracefully with a
	// partial Result and a nil error — Result.CompletedRounds tells the
	// caller how far it got. Nil means never.
	Stop func() bool
	// Resume, when non-empty, restores this snapshot (as produced via
	// Sink) before the first round. The run's configuration must match the
	// snapshot's fingerprint, and the population must be freshly
	// constructed (no trace steps generated, nothing resident).
	Resume []byte
}

// fingerprint pins every configuration dimension that affects the
// deterministic schedule. Rounds is deliberately absent — resuming with a
// larger Rounds is the supported way to extend a run — as are Parallelism
// (bit-identical by construction) and the checkpoint knobs themselves.
type fingerprint struct {
	Engine             string  `json:"engine"`
	Arch               string  `json:"arch"`
	Seed               int64   `json:"seed"`
	ClientsPerRound    int     `json:"clients_per_round"`
	Epochs             int     `json:"epochs"`
	BatchSize          int     `json:"batch_size"`
	LR                 float64 `json:"lr"`
	GradClip           float64 `json:"grad_clip"`
	DeadlineSec        float64 `json:"deadline_sec"`
	DeadlinePercentile float64 `json:"deadline_percentile"`
	EvalEvery          int     `json:"eval_every"`
	Concurrency        int     `json:"concurrency"`
	BufferK            int     `json:"buffer_k"`
	StalenessCap       int     `json:"staleness_cap"`
	Backend            string  `json:"backend"`
	ProxMu             float64 `json:"prox_mu"`
	EvalClients        int     `json:"eval_clients"`
	Population         int     `json:"population"`
	LazySelection      bool    `json:"lazy_selection"`
	Selector           string  `json:"selector"`
	Controller         string  `json:"controller"`
}

// mismatch returns a field-level CompatError when two fingerprints differ
// (nil when identical).
func (got fingerprint) mismatch(want fingerprint) error {
	if got == want {
		return nil
	}
	gb, _ := json.Marshal(got)
	wb, _ := json.Marshal(want)
	var gm, wm map[string]json.RawMessage
	_ = json.Unmarshal(gb, &gm)
	_ = json.Unmarshal(wb, &wm)
	keys := make([]string, 0, len(gm))
	for k := range gm {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !bytes.Equal(gm[k], wm[k]) {
			return &checkpoint.CompatError{Field: k, Got: string(gm[k]), Want: string(wm[k])}
		}
	}
	return &checkpoint.CompatError{Field: "fingerprint", Got: string(gb), Want: string(wb)}
}

// encodeParams serializes a parameter vector exactly: little-endian IEEE
// 754 bits, base64. Bit-exact for every value including NaN payloads, and
// ~3x more compact than decimal JSON.
func encodeParams(v tensor.Vector) string {
	buf := make([]byte, 8*len(v))
	for i, x := range v {
		binary.LittleEndian.PutUint64(buf[i*8:], math.Float64bits(x))
	}
	return base64.StdEncoding.EncodeToString(buf)
}

// decodeParams inverts encodeParams, enforcing the expected length.
func decodeParams(s string, want int) (tensor.Vector, error) {
	raw, err := base64.StdEncoding.DecodeString(s)
	if err != nil {
		return nil, &checkpoint.FormatError{Reason: "parameter blob is not base64: " + err.Error()}
	}
	if len(raw) != 8*want {
		return nil, &checkpoint.CompatError{Field: "parameter count",
			Got: strconv.Itoa(len(raw) / 8), Want: strconv.Itoa(want)}
	}
	v := make(tensor.Vector, want)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[i*8:]))
	}
	return v, nil
}

// captureStateful captures v's checkpoint state when it implements
// checkpoint.Stateful (structurally); stateless components contribute nil.
func captureStateful(v any) ([]byte, error) {
	if s, ok := v.(checkpoint.Stateful); ok {
		return s.CheckpointState()
	}
	return nil, nil
}

// restoreStateful applies a captured blob to v. A blob for a stateless
// component is a format error (the fingerprint matched, so the component
// names agree — the build must have lost the implementation).
func restoreStateful(v any, blob []byte, what string) error {
	if len(blob) == 0 {
		return nil
	}
	s, ok := v.(checkpoint.Stateful)
	if !ok {
		return &checkpoint.FormatError{Reason: what + " snapshot present but the component is stateless"}
	}
	return s.RestoreCheckpoint(blob)
}

// runSnap is the state shared by both engines' snapshots.
type runSnap struct {
	Fingerprint fingerprint          `json:"fingerprint"`
	Completed   int                  `json:"completed"` // rounds (sync) or aggregations (async)
	Wall        float64              `json:"wall_clock_seconds"`
	Params      string               `json:"params"`
	ParamCount  int                  `json:"param_count"`
	AccHistory  []float64            `json:"acc_history,omitempty"`
	EvalRounds  []int                `json:"eval_rounds,omitempty"`
	HFDiff      map[int]float64      `json:"hf_diff,omitempty"`
	Draws       uint64               `json:"draws"`
	Ledger      *metrics.LedgerState `json:"ledger"`
	Selector    []byte               `json:"selector,omitempty"`
	Controller  []byte               `json:"controller,omitempty"`
	Population  *population.State    `json:"population"`
	Obs         *obs.Snapshot        `json:"obs,omitempty"`
	Timeline    []byte               `json:"timeline,omitempty"`
}

// taskSnap is one in-flight async task. The heap's backing array is
// serialized in array order and restored verbatim: heap.Init on an
// already-valid heap performs no swaps, so pop order — including ties on
// finishAt — is preserved exactly.
type taskSnap struct {
	ClientID     int            `json:"client_id"`
	StartVersion int            `json:"start_version"`
	FinishAt     float64        `json:"finish_at"`
	Tech         opt.Technique  `json:"tech"`
	Outcome      device.Outcome `json:"outcome"`
}

// versionSnap is one retained global-parameter version of the async
// engine's staleness window.
type versionSnap struct {
	Version int    `json:"version"`
	Params  string `json:"params"`
}

// asyncSnap extends runSnap with the async engine's event-loop state.
type asyncSnap struct {
	runSnap
	Version       int           `json:"version"`
	Now           float64       `json:"now"`
	EvalCountdown int           `json:"eval_countdown"`
	Versions      []versionSnap `json:"versions"`
	Tasks         []taskSnap    `json:"tasks,omitempty"`
}

// fingerprint builds the run's configuration fingerprint. The FedBuff
// knobs are pinned only for the async engine: a sync run never reads them.
func (r *run) fingerprint() fingerprint {
	fp := fingerprint{
		Engine:             "sync",
		Arch:               r.cfg.Arch,
		Seed:               r.cfg.Seed,
		ClientsPerRound:    r.cfg.ClientsPerRound,
		Epochs:             r.cfg.Epochs,
		BatchSize:          r.cfg.BatchSize,
		LR:                 r.cfg.LR,
		GradClip:           r.cfg.GradClip,
		DeadlineSec:        r.deadline,
		DeadlinePercentile: r.cfg.DeadlinePercentile,
		EvalEvery:          r.cfg.EvalEvery,
		Backend:            r.cfg.Backend,
		ProxMu:             r.cfg.ProxMu,
		EvalClients:        r.cfg.EvalClients,
		Population:         r.p.NumClients(),
		LazySelection:      r.lazy,
		Selector:           r.res.Algorithm,
		Controller:         r.res.Controller,
	}
	if r.async() {
		fp.Engine = "async"
		fp.Concurrency = r.cfg.Concurrency
		fp.BufferK = r.cfg.BufferK
		fp.StalenessCap = r.cfg.StalenessCap
	}
	return fp
}

// CheckpointState captures the complete run at a boundary as a framed,
// checksummed blob of the engine's kind: the shared runSnap, extended for
// the async engine with its event-loop state. The encodings reference live
// state without copying — the blob is marshaled before the engine moves on.
func (r *run) CheckpointState() ([]byte, error) {
	params := r.global.Parameters()
	snap := runSnap{
		Fingerprint: r.fingerprint(),
		Completed:   r.done,
		Wall:        r.now,
		Params:      encodeParams(params),
		ParamCount:  len(params),
		AccHistory:  r.res.GlobalAccHistory,
		EvalRounds:  r.res.EvalRounds,
		HFDiff:      r.hfDiff,
		Draws:       r.src.Pos(),
		Ledger:      r.res.Ledger.CheckpointState(),
	}
	var err error
	if snap.Selector, err = captureStateful(r.sel); err != nil {
		return nil, err
	}
	if snap.Controller, err = captureStateful(r.ctrl); err != nil {
		return nil, err
	}
	if snap.Population, err = r.p.CheckpointState(); err != nil {
		return nil, err
	}
	if r.cfg.Metrics != nil {
		o := r.cfg.Metrics.Snapshot()
		snap.Obs = &o
	}
	if r.cfg.Timeline != nil {
		if snap.Timeline, err = r.cfg.Timeline.CheckpointState(); err != nil {
			return nil, err
		}
	}
	var full any = snap
	if r.async() {
		full = r.captureEventLoop(snap)
	}
	payload, err := json.Marshal(full)
	if err != nil {
		return nil, err
	}
	return checkpoint.EncodeBytes(r.kind, payload)
}

// captureEventLoop extends the shared snapshot with the FedBuff event loop.
// The buffered-job and pending-event queues are empty at a barrier by
// construction, so in-flight tasks are the only queued state.
func (r *run) captureEventLoop(shared runSnap) asyncSnap {
	snap := asyncSnap{runSnap: shared, Version: r.version, Now: r.now, EvalCountdown: r.evalCountdown}
	vs := make([]int, 0, len(r.versions))
	for v := range r.versions {
		vs = append(vs, v)
	}
	sort.Ints(vs)
	for _, v := range vs {
		snap.Versions = append(snap.Versions, versionSnap{Version: v, Params: encodeParams(r.versions[v])})
	}
	for _, t := range r.tasks {
		snap.Tasks = append(snap.Tasks, taskSnap{
			ClientID:     t.clientID,
			StartVersion: t.startVersion,
			FinishAt:     t.finishAt,
			Tech:         t.tech,
			Outcome:      t.outcome,
		})
	}
	return snap
}

// RestoreCheckpoint applies a snapshot to a freshly initialized run. Decode
// and every validation complete before the first mutation, so a corrupt or
// incompatible snapshot leaves the run untouched. State then lands in
// dependency order: population drain logs before anything probes a trace;
// parameters, ledger and result; selector and controller; the async event
// loop, which re-pins its in-flight clients; only then the unpinned cache
// residency; the metric registry and timeline; and the RNG position last.
// A sync payload simply has none of the event-loop fields.
func (r *run) RestoreCheckpoint(data []byte) error {
	payload, err := checkpoint.DecodeBytes(data, r.kind)
	if err != nil {
		return err
	}
	var snap asyncSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return &checkpoint.FormatError{Reason: r.kind + " snapshot payload: " + err.Error()}
	}
	if err := snap.Fingerprint.mismatch(r.fingerprint()); err != nil {
		return err
	}
	if snap.Completed > r.cfg.Rounds {
		return &checkpoint.CompatError{Field: "completed rounds",
			Got: strconv.Itoa(snap.Completed), Want: "<= " + strconv.Itoa(r.cfg.Rounds)}
	}
	dim := len(r.global.Parameters())
	params, err := decodeParams(snap.Params, dim)
	if err != nil {
		return err
	}
	versions := make(map[int]tensor.Vector, len(snap.Versions))
	for _, v := range snap.Versions {
		if versions[v.Version], err = decodeParams(v.Params, dim); err != nil {
			return err
		}
	}
	n := r.p.NumClients()
	for _, t := range snap.Tasks {
		if t.ClientID < 0 || t.ClientID >= n {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("in-flight task for client %d, population has %d", t.ClientID, n)}
		}
	}

	if err := r.p.RestoreDrainLogs(snap.Population); err != nil {
		return err
	}
	if err := r.global.SetParameters(params); err != nil {
		return err
	}
	if err := r.res.Ledger.RestoreCheckpoint(snap.Ledger); err != nil {
		return err
	}
	r.done, r.now = snap.Completed, snap.Wall
	r.res.GlobalAccHistory, r.res.EvalRounds = snap.AccHistory, snap.EvalRounds
	for id, v := range snap.HFDiff {
		r.hfDiff[id] = v
	}
	if err := restoreStateful(r.sel, snap.Selector, "selector"); err != nil {
		return err
	}
	if err := restoreStateful(r.ctrl, snap.Controller, "controller"); err != nil {
		return err
	}
	if r.async() {
		r.restoreEventLoop(snap, versions)
	}
	r.p.RestoreResidency(snap.Population)
	if r.cfg.Metrics != nil && snap.Obs != nil {
		if err := r.cfg.Metrics.RestoreSnapshot(*snap.Obs); err != nil {
			return err
		}
	}
	if r.cfg.Timeline != nil && len(snap.Timeline) > 0 {
		if err := r.cfg.Timeline.RestoreCheckpoint(snap.Timeline); err != nil {
			return err
		}
	}
	r.src.SeekTo(snap.Draws)
	return nil
}

// restoreEventLoop installs the FedBuff event loop from a validated
// snapshot. Every in-flight client is re-pinned here, before the caller
// warms the unpinned LRU: Acquire passes transiently through the unpinned
// list, so pinning into an already-warmed full cache would momentarily
// overflow it and evict an entry the capture knew was resident.
func (r *run) restoreEventLoop(snap asyncSnap, versions map[int]tensor.Vector) {
	r.versions, r.version = versions, snap.Version
	r.now, r.evalCountdown = snap.Now, snap.EvalCountdown
	for _, t := range snap.Tasks {
		c := r.p.AcquireClient(t.ClientID)
		shard := r.p.AcquireShard(t.ClientID)
		r.tasks = append(r.tasks, asyncTask{
			clientID:     t.ClientID,
			client:       c,
			train:        shard.Train,
			localTest:    shard.LocalTest,
			startVersion: t.StartVersion,
			finishAt:     t.FinishAt,
			outcome:      t.Outcome,
			tech:         t.Tech,
		})
		r.inFlight[t.ClientID] = true
	}
	heap.Init(&r.tasks)
}
