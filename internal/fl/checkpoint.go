package fl

import (
	"bytes"
	"container/heap"
	"encoding/json"
	"fmt"
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
	// Sink receives each encoded snapshot: a framed, checksummed blob —
	// write it to disk as-is (checkpoint.WriteRaw). The engine never
	// touches a blob again after handing it over, so a sink may keep it.
	// A snapshot error aborts the run. Nil
	// disables snapshotting entirely (Every is then inert).
	Sink func(snapshot []byte) error
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

// appendStateful appends v's checkpoint state as one length-prefixed
// section when it implements checkpoint.Stateful (structurally); a
// stateless component contributes an empty one.
func appendStateful(e *checkpoint.Enc, v any) error {
	if s, ok := v.(checkpoint.Stateful); ok {
		return e.Stateful(s)
	}
	e.RawBytes(nil)
	return nil
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

// snapSlack is the head-room a snapshot buffer gets over the previous
// snapshot's length: drain logs, the timeline and the agent's reward
// history grow by a few hundred bytes per boundary, and a buffer that
// falls short is re-grown (copied) by append.
const snapSlack = 4096

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
		GradClip:           GradClip,
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
// checksummed blob of the engine's kind, written in place into one fresh
// buffer sized from the previous snapshot. Section order (DESIGN.md,
// "Snapshot format"): the fingerprint (JSON — mismatch reports by its
// field names), completed, clock, RNG position, parameters, accuracy
// history and its rounds, the HF-diff map, the ledger, the selector's and
// the controller's own sections, the population, the metric registry
// (behind a presence flag), the timeline's own section, and — async only —
// the event loop. The sections reference live state without copying; the
// frame is finished before the engine moves on.
func (r *run) CheckpointState() ([]byte, error) {
	fp, err := json.Marshal(r.fingerprint())
	if err != nil {
		return nil, err
	}
	e := checkpoint.Begin(r.kind, r.snapHint)
	e.RawBytes(fp)
	e.Int(r.done)
	e.Float64(r.now)
	e.Uvarint(r.rng.Pos())
	e.Float64s(r.global.Parameters())
	e.Float64s(r.res.GlobalAccHistory)
	e.Ints(r.res.EvalRounds)
	e.FloatsByID(r.hfDiff)
	r.res.Ledger.AppendCheckpoint(e)
	if err := appendStateful(e, r.sel); err != nil {
		return nil, err
	}
	if err := appendStateful(e, r.ctrl); err != nil {
		return nil, err
	}
	r.p.AppendCheckpoint(e)
	e.Bool(r.cfg.Metrics != nil)
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.Snapshot().AppendTo(e)
	}
	if r.cfg.Timeline != nil {
		if err := e.Stateful(r.cfg.Timeline); err != nil {
			return nil, err
		}
	} else {
		e.RawBytes(nil)
	}
	if r.async() {
		r.appendEventLoop(e)
	}
	blob, err := e.Finish()
	r.snapHint = len(blob) + snapSlack
	return blob, err
}

// appendEventLoop writes the FedBuff event loop: version, eval countdown, the retained parameter versions in version order as raw
// floats, and the in-flight tasks field by field. The buffered-job and
// pending-event queues are empty at a barrier by construction, so
// in-flight tasks are the only queued state. The heap's backing array is
// written in array order and restored verbatim: heap.Init on an
// already-valid heap performs no swaps, so pop order — including ties on
// finishAt — is preserved exactly.
func (r *run) appendEventLoop(e *checkpoint.Enc) {
	e.Int(r.version)
	e.Int(r.evalCountdown)
	e.Uvarint(uint64(len(r.versions)))
	for _, v := range checkpoint.SortedKeys(r.versions) {
		e.Int(v)
		e.Float64s(r.versions[v])
	}
	e.Uvarint(uint64(len(r.tasks)))
	for _, t := range r.tasks {
		e.Int(t.clientID)
		e.Int(t.startVersion)
		e.Float64(t.finishAt)
		e.Int(int(t.tech))
		out := t.outcome
		e.Bool(out.Completed)
		e.Int(int(out.Reason))
		for _, v := range [...]float64{
			out.Cost.ComputeSeconds, out.Cost.CommSeconds, out.Cost.TotalSeconds, out.Cost.UploadBytes,
			out.Cost.DownloadBytes, out.Cost.MemoryBytes, out.Cost.EnergyHours, out.DeadlineDiff,
		} {
			e.Float64(v)
		}
		res := out.Resources
		e.Bool(res.Available)
		for _, v := range [...]float64{res.CPUFrac, res.MemFrac, res.NetFrac, res.BandwidthMbps, res.Battery} {
			e.Float64(v)
		}
	}
}

// taskSnapMin is the least a task occupies on the wire: four varints, two
// bools and fourteen raw floats (finishAt, the seven Cost fields,
// DeadlineDiff and the five Resources floats).
const taskSnapMin = 4 + 2 + 14*8

// eventLoopSnap is the decoded async section of a snapshot. The tasks are
// complete but for what only a live population can supply: the pinned
// client and its shard, which restoreEventLoop acquires.
type eventLoopSnap struct {
	version, evalCountdown int
	versions               map[int]tensor.Vector
	tasks                  taskHeap
}

// decodeEventLoop reads what appendEventLoop wrote; malformed input
// latches d's error.
func decodeEventLoop(d *checkpoint.Dec) eventLoopSnap {
	el := eventLoopSnap{version: d.Int(), evalCountdown: d.Int()}
	n := d.Count(2)
	el.versions = make(map[int]tensor.Vector, n)
	for i, prev := 0, 0; i < n; i++ {
		v := d.Key(i, prev)
		el.versions[v], prev = d.Float64s(), v
	}
	el.tasks = make(taskHeap, d.Count(taskSnapMin))
	for i := range el.tasks {
		t := asyncTask{clientID: d.Int(), startVersion: d.Int(), finishAt: d.Float64(), tech: opt.Technique(d.Int())}
		t.outcome.Completed, t.outcome.Reason = d.Bool(), device.DropReason(d.Int())
		t.outcome.Cost = device.Cost{
			ComputeSeconds: d.Float64(), CommSeconds: d.Float64(), TotalSeconds: d.Float64(), UploadBytes: d.Float64(),
			DownloadBytes: d.Float64(), MemoryBytes: d.Float64(), EnergyHours: d.Float64(),
		}
		t.outcome.DeadlineDiff = d.Float64()
		t.outcome.Resources = device.Resources{
			Available: d.Bool(), CPUFrac: d.Float64(), MemFrac: d.Float64(), NetFrac: d.Float64(),
			BandwidthMbps: d.Float64(), Battery: d.Float64(),
		}
		el.tasks[i] = t
	}
	return el
}

// paramCount is the typed refusal of a parameter vector of the wrong size.
func paramCount(got, want int) error {
	return &checkpoint.CompatError{Field: "parameter count", Got: strconv.Itoa(got), Want: strconv.Itoa(want)}
}

// RestoreCheckpoint applies a snapshot to a freshly initialized run. Every
// section is decoded into locals, Done rejects trailing bytes, and every
// validation the run can make itself completes before the first mutation,
// so a corrupt or incompatible snapshot leaves the run untouched. State
// then lands in dependency order: population drain logs before anything
// probes a trace; parameters, ledger and result; selector and controller;
// the async event loop, which re-pins its in-flight clients; only then the
// unpinned cache residency; the metric registry and timeline; and the RNG
// position last. Each component validates its own section as it is
// restored and is itself untouched by a section it rejects (every error is
// one of the checkpoint package's typed errors), but components restored
// before it have been written: the caller abandons the run.
func (r *run) RestoreCheckpoint(data []byte) error {
	payload, err := checkpoint.DecodeBytes(data, r.kind)
	if err != nil {
		return err
	}
	d := checkpoint.NewDec(payload)
	fpJSON := d.RawBytes()
	completed, wall, draws := d.Int(), d.Float64(), d.Draws()
	params := tensor.Vector(d.Float64s())
	accHistory, evalRounds := d.Float64s(), d.Ints()
	hfDiff := d.FloatsByID()
	ledger := metrics.DecodeLedgerState(d)
	selBlob, ctrlBlob := d.RawBytes(), d.RawBytes()
	pop := population.DecodeState(d)
	var reg *obs.Snapshot
	if d.Bool() {
		s := obs.DecodeSnapshot(d)
		reg = &s
	}
	timeline := d.RawBytes()
	var el eventLoopSnap
	if r.async() {
		el = decodeEventLoop(d)
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("%s snapshot payload: %w", r.kind, err)
	}

	var fp fingerprint
	if err := json.Unmarshal(fpJSON, &fp); err != nil {
		return &checkpoint.FormatError{Reason: r.kind + " snapshot fingerprint: " + err.Error()}
	}
	if err := fp.mismatch(r.fingerprint()); err != nil {
		return err
	}
	if completed < 0 || completed > r.cfg.Rounds {
		return &checkpoint.CompatError{Field: "completed rounds",
			Got: strconv.Itoa(completed), Want: "<= " + strconv.Itoa(r.cfg.Rounds)}
	}
	dim := len(r.global.Parameters())
	if len(params) != dim {
		return paramCount(len(params), dim)
	}
	if !IsFinite(params) {
		return &checkpoint.FormatError{Reason: "global parameters are not finite"}
	}
	for _, v := range el.versions {
		if len(v) != dim {
			return paramCount(len(v), dim)
		}
		if !IsFinite(v) {
			return &checkpoint.FormatError{Reason: "retained parameter version is not finite"}
		}
	}
	if len(accHistory) != len(evalRounds) {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("%d accuracies for %d evaluated rounds", len(accHistory), len(evalRounds))}
	}
	n := r.p.NumClients()
	for _, t := range el.tasks {
		if t.clientID < 0 || t.clientID >= n {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("in-flight task for client %d, population has %d", t.clientID, n)}
		}
		if t.tech < 0 || int(t.tech) >= opt.NumTechniques {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("in-flight task with unknown technique %d", int(t.tech))}
		}
	}

	if err := r.p.RestoreDrainLogs(pop); err != nil {
		return err
	}
	if err := r.global.SetParameters(params); err != nil {
		return err
	}
	if err := r.res.Ledger.RestoreCheckpoint(ledger); err != nil {
		return err
	}
	r.done, r.now = completed, wall
	r.res.GlobalAccHistory, r.res.EvalRounds = accHistory, evalRounds
	r.hfDiff = hfDiff
	if err := restoreStateful(r.sel, selBlob, "selector"); err != nil {
		return err
	}
	if err := restoreStateful(r.ctrl, ctrlBlob, "controller"); err != nil {
		return err
	}
	if r.async() {
		r.restoreEventLoop(el)
	}
	r.p.RestoreResidency(pop)
	if r.cfg.Metrics != nil && reg != nil {
		if err := r.cfg.Metrics.RestoreSnapshot(*reg); err != nil {
			return err
		}
	}
	if r.cfg.Timeline != nil && len(timeline) > 0 {
		if err := r.cfg.Timeline.RestoreCheckpoint(timeline); err != nil {
			return err
		}
	}
	r.rng.SeekTo(draws)
	r.snapHint = len(data) + snapSlack
	return nil
}

// restoreEventLoop installs the FedBuff event loop from a validated
// snapshot. Every in-flight client is re-pinned here, before the caller
// warms the unpinned LRU: Acquire passes transiently through the unpinned
// list, so pinning into an already-warmed full cache would momentarily
// overflow it and evict an entry the capture knew was resident.
func (r *run) restoreEventLoop(el eventLoopSnap) {
	r.versions, r.version, r.evalCountdown = el.versions, el.version, el.evalCountdown
	r.tasks = el.tasks
	for i := range r.tasks {
		t := &r.tasks[i]
		t.client = r.p.AcquireClient(t.clientID)
		r.inFlight[t.clientID] = true
	}
	heap.Init(&r.tasks)
}
