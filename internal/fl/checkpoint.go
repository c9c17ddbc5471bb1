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
	// write it to disk as-is (checkpoint.WriteRaw). The blob is valid until
	// Sink returns: the engine re-encodes the next snapshot into the same
	// buffer, so a sink that keeps a blob copies it. A snapshot or sink
	// error aborts the run. Nil disables snapshotting entirely (Every is
	// then inert).
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

// fingerprint is the canonical JSON of what a snapshot may resume under:
// the defaulted Config (the FedBuff knobs zeroed for a sync run, which
// never reads them), the population's own Config, and the engine facts —
// engine kind, lazy selection, and the selector's and controller's names.
func (r *run) fingerprint() ([]byte, error) {
	cfg, engine := r.cfg, "async"
	if !r.async() {
		cfg.Concurrency, cfg.BufferK, cfg.StalenessCap = 0, 0, 0
		engine = "sync"
	}
	return json.Marshal(struct {
		Config
		Engine        string            `json:"engine"`
		LazySelection bool              `json:"lazy_selection"`
		Selector      string            `json:"selector"`
		Controller    string            `json:"controller"`
		Population    population.Config `json:"population"`
	}{cfg, engine, r.lazy, r.res.Algorithm, r.res.Controller, r.p.Config()})
}

// mismatch compares a snapshot's fingerprint with the run's over the union
// of their keys — sorted, a level's own values before its nested objects,
// which are walked by path ("population.scenario") — and returns a
// CompatError naming the first knob that differs, or nil.
func mismatch(got, want []byte, path string) error {
	if bytes.Equal(got, want) {
		return nil
	}
	var gm, wm map[string]json.RawMessage
	if err := json.Unmarshal(got, &gm); err != nil {
		return &checkpoint.FormatError{Reason: "snapshot fingerprint: " + err.Error()}
	}
	if err := json.Unmarshal(want, &wm); err != nil {
		return err
	}
	keys := make([]string, 0, len(wm))
	for k := range wm {
		keys = append(keys, k)
	}
	for k := range gm {
		if _, ok := wm[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	isObject := func(v json.RawMessage) bool { return len(v) > 0 && v[0] == '{' }
	var nested []string
	for _, k := range keys {
		g, w := gm[k], wm[k]
		if isObject(g) && isObject(w) {
			nested = append(nested, k)
		} else if !bytes.Equal(g, w) {
			return &checkpoint.CompatError{Field: path + k, Got: string(g), Want: string(w)}
		}
	}
	for _, k := range nested {
		if err := mismatch(gm[k], wm[k], path+k+"."); err != nil {
			return err
		}
	}
	return nil
}

// CheckpointState captures the complete run at a boundary as a framed,
// checksummed blob of the engine's kind, re-encoded in place into the
// run's one frame buffer: the blob is valid until the next call. Section
// order (DESIGN.md, "Snapshot format"): the fingerprint (JSON — mismatch
// reports by its field names), completed, clock, RNG position, parameters,
// accuracy history and its rounds, the HF-diff map, the ledger, the
// selector's and the controller's own sections, the population, the
// metric registry (behind a presence flag), the timeline's own section,
// and — async only — the event loop. Every component appends its section straight into the
// frame, so a warm boundary allocates nothing.
func (r *run) CheckpointState() ([]byte, error) {
	e := &r.frame
	e.Begin(r.kind)
	e.RawBytes(r.fp)
	e.Int(r.done)
	e.Float64(r.now)
	e.Uvarint(r.rng.Pos())
	e.Float64s(r.global.Parameters())
	e.Float64s(r.res.GlobalAccHistory)
	e.Ints(r.res.EvalRounds)
	e.FloatsByID(r.hfDiff)
	r.res.Ledger.AppendCheckpoint(e)
	if err := checkpoint.AppendStateful(e, r.sel); err != nil {
		return nil, err
	}
	if err := checkpoint.AppendStateful(e, r.ctrl); err != nil {
		return nil, err
	}
	r.p.AppendCheckpoint(e)
	e.Bool(r.cfg.Metrics != nil)
	if r.cfg.Metrics != nil {
		r.cfg.Metrics.AppendCheckpoint(e)
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
	return e.Finish()
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
	for _, v := range checkpoint.Keys(e, r.versions) {
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

	if err := mismatch(fpJSON, r.fp, ""); err != nil {
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
	if err := checkpoint.RestoreStateful(r.sel, selBlob, "selector"); err != nil {
		return err
	}
	if err := checkpoint.RestoreStateful(r.ctrl, ctrlBlob, "controller"); err != nil {
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
