package dist

import (
	"encoding/json"
	"fmt"
	"net/http"

	"floatfl/internal/checkpoint"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/tensor"
)

// ServerSnapshotKind frames aggregator snapshots served by /v1/snapshot.
const ServerSnapshotKind = "dist-server"

// serverClientState persists one registration: identity plus the
// capability profile the controller keys its decisions on. Task holds and
// leases are deliberately absent — they die with the process, and the
// idempotent task protocol lets survivors simply re-fetch.
type serverClientState struct {
	ID       int
	Name     string
	GFLOPS   float64
	MemoryMB float64
	Tech     string
}

// serverState is the payload of a dist-server frame, in wire order: the
// model spec, round and next client ID, the model blob (nn's binary form,
// raw), the registry in client-ID order, the buffered deltas as raw floats
// with their weights, the holdout accuracy, the controller's own section
// (empty when stateless), the metric registry and the timeline's section.
type serverState struct {
	Arch           string
	InDim, Classes int
	Round          int
	NextClientID   int
	Model          []byte
	Clients        []serverClientState
	Deltas         []tensor.Vector
	Weights        []float64
	HoldoutAcc     float64
	Controller     []byte
	Obs            obs.Snapshot
	Timeline       []byte
}

func (st *serverState) appendTo(e *checkpoint.Enc) {
	e.String(st.Arch)
	e.Int(st.InDim)
	e.Int(st.Classes)
	e.Int(st.Round)
	e.Int(st.NextClientID)
	e.RawBytes(st.Model)
	e.Uvarint(uint64(len(st.Clients)))
	for _, c := range st.Clients {
		e.Int(c.ID)
		e.String(c.Name)
		e.Float64(c.GFLOPS)
		e.Float64(c.MemoryMB)
		e.String(c.Tech)
	}
	e.Uvarint(uint64(len(st.Deltas)))
	for _, d := range st.Deltas {
		e.Float64s(d)
	}
	e.Float64s(st.Weights)
	e.Float64(st.HoldoutAcc)
	e.RawBytes(st.Controller)
	st.Obs.AppendTo(e)
	e.RawBytes(st.Timeline)
}

// decodeServerState reads what appendTo wrote; Model, Controller and
// Timeline alias the payload.
func decodeServerState(payload []byte) (*serverState, error) {
	d := checkpoint.NewDec(payload)
	st := &serverState{Arch: d.String(), InDim: d.Int(), Classes: d.Int(), Round: d.Int(), NextClientID: d.Int()}
	st.Model = d.RawBytes()
	st.Clients = make([]serverClientState, d.Count(1+1+8+8+1))
	for i := range st.Clients {
		st.Clients[i] = serverClientState{ID: d.Int(), Name: d.String(), GFLOPS: d.Float64(), MemoryMB: d.Float64(), Tech: d.String()}
	}
	st.Deltas = make([]tensor.Vector, d.Count(1))
	for i := range st.Deltas {
		st.Deltas[i] = d.Float64s()
	}
	st.Weights = d.Float64s()
	st.HoldoutAcc = d.Float64()
	st.Controller = d.RawBytes()
	st.Obs = obs.DecodeSnapshot(d)
	st.Timeline = d.RawBytes()
	if err := d.Done(); err != nil {
		return nil, fmt.Errorf("server state: %w", err)
	}
	return st, nil
}

// Snapshot serializes the aggregator's durable state — global model,
// round counter, client registry, buffered updates, controller state, and
// the metrics registry — into a checksummed frame. Callers normally drain
// first so no outstanding work is lost.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.joinLocked()
	blob, err := s.modelBlobLocked()
	if err != nil {
		return nil, err
	}
	st := serverState{
		Arch:         s.cfg.Spec.Arch,
		InDim:        s.cfg.Spec.InDim,
		Classes:      s.cfg.Spec.Classes,
		Round:        s.round,
		NextClientID: s.nextClientID,
		Model:        blob,
		Deltas:       s.deltas,
		Weights:      s.weights,
		HoldoutAcc:   s.holdoutAcc,
		Obs:          s.metrics.Snapshot(),
	}
	for _, id := range checkpoint.SortedKeys(s.clients) {
		ci := s.clients[id]
		st.Clients = append(st.Clients, serverClientState{
			ID:       id,
			Name:     ci.name,
			GFLOPS:   ci.dev.Compute.GFLOPS,
			MemoryMB: ci.dev.Compute.MemoryMB,
			Tech:     ci.tech.String(),
		})
	}
	if cs, ok := s.cfg.Controller.(checkpoint.Stateful); ok {
		if st.Controller, err = cs.CheckpointState(); err != nil {
			return nil, fmt.Errorf("dist: snapshot controller: %w", err)
		}
	}
	if st.Timeline, err = s.timeline.CheckpointState(); err != nil {
		return nil, fmt.Errorf("dist: snapshot timeline: %w", err)
	}
	size := len(blob) + len(st.Controller) + len(st.Timeline) + 8*len(s.deltas)*(s.global.NumParams()+2) + 64*len(s.clients) + 16<<10
	e := checkpoint.Begin(ServerSnapshotKind, size)
	st.appendTo(e)
	return e.Finish()
}

// RestoreSnapshot loads a frame produced by Snapshot into a freshly built
// server. Validation of the server's own state (checksum, kind, every
// section's shape, spec compatibility, technique names, buffered deltas
// of the model's length, finite and weighted within the live clamp, a
// finite model blob) completes before anything is touched, so a
// snapshot rejected there leaves the server exactly as NewServer built it;
// the controller, metrics and timeline sections are validated by their
// owners as they are restored, each leaving itself untouched by a section
// it rejects. Every failure is one of the checkpoint package's typed
// errors. Outstanding tasks are not resurrected: surviving clients
// re-fetch and stale uploads get the usual 409.
func (s *Server) RestoreSnapshot(data []byte) error {
	payload, err := checkpoint.DecodeBytes(data, ServerSnapshotKind)
	if err != nil {
		return err
	}
	st, err := decodeServerState(payload)
	if err != nil {
		return err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	// The model is about to be replaced: the evaluation reading it goes
	// first.
	s.joinLocked()
	for _, c := range []struct{ field, got, want string }{
		{"arch", st.Arch, s.cfg.Spec.Arch},
		{"in_dim", fmt.Sprint(st.InDim), fmt.Sprint(s.cfg.Spec.InDim)},
		{"classes", fmt.Sprint(st.Classes), fmt.Sprint(s.cfg.Spec.Classes)},
	} {
		if c.got != c.want {
			return &checkpoint.CompatError{Field: c.field, Got: c.got, Want: c.want}
		}
	}
	if len(st.Deltas) != len(st.Weights) {
		return &checkpoint.FormatError{Reason: "delta/weight count mismatch"}
	}
	for i, d := range st.Deltas {
		if len(d) != s.global.NumParams() {
			return &checkpoint.CompatError{
				Field: "delta_len",
				Got:   fmt.Sprint(len(d)),
				Want:  fmt.Sprint(s.global.NumParams()),
			}
		}
		// What the live server would have refused must not come back in
		// through a snapshot: the next aggregation would apply it.
		if !fl.IsFinite(d) {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("buffered delta %d is not finite", i)}
		}
		if w := st.Weights[i]; !(w >= 1 && w <= maxUpdateSamples) {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("buffered delta %d has weight %v outside [1, %v]", i, w, maxUpdateSamples)}
		}
	}
	techs := make([]opt.Technique, len(st.Clients))
	for i, c := range st.Clients {
		if c.Tech == "" {
			continue
		}
		parsed, err := opt.Parse(c.Tech)
		if err != nil {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("client %d technique: %v", c.ID, err)}
		}
		techs[i] = parsed
	}
	restored := s.global.Clone()
	if err := restored.UnmarshalBinary(st.Model); err != nil {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("model blob: %v", err)}
	}
	if !fl.IsFinite(restored.Parameters()) {
		return &checkpoint.FormatError{Reason: "model blob: parameters are not finite"}
	}
	if cs, ok := s.cfg.Controller.(checkpoint.Stateful); ok && len(st.Controller) > 0 {
		if err := cs.RestoreCheckpoint(st.Controller); err != nil {
			return fmt.Errorf("dist: restore controller: %w", err)
		}
	}
	s.global = restored
	s.modelBlob = nil
	s.round = st.Round
	s.nextClientID = st.NextClientID
	s.holdoutAcc = st.HoldoutAcc
	s.outstanding = 0
	s.clients = make(map[int]*clientInfo, len(st.Clients))
	s.byName = make(map[string]int, len(st.Clients))
	for i, c := range st.Clients {
		ci := newClientInfo(c.ID, c.Name, c.GFLOPS, c.MemoryMB)
		ci.tech = techs[i]
		s.clients[c.ID] = ci
		if c.Name != "" {
			s.byName[c.Name] = c.ID
		}
	}
	// The decoded deltas are the server's own: Float64s allocates them.
	s.deltas = append(s.deltas[:0], st.Deltas...)
	s.weights = append(s.weights[:0], st.Weights...)
	if err := s.metrics.RestoreSnapshot(st.Obs); err != nil {
		return fmt.Errorf("dist: restore metrics: %w", err)
	}
	if len(st.Timeline) > 0 {
		if err := s.timeline.RestoreCheckpoint(st.Timeline); err != nil {
			return fmt.Errorf("dist: restore timeline: %w", err)
		}
	}
	// Unconditionally: a zero accuracy over a registry section holding
	// another value must not leave /v1/status and /v1/metrics disagreeing.
	s.obs.holdoutAcc.Set(s.holdoutAcc)
	s.armRoundTimerLocked()
	s.syncGaugesLocked()
	return nil
}

// SetDraining toggles drain mode: while draining, no new tasks are handed
// out (clients get 204 and back off) so outstanding work converges to
// zero ahead of a snapshot. Re-issues of already-held tasks still work —
// a drain must not strand a client that is mid-training.
func (s *Server) SetDraining(on bool) {
	s.mu.Lock()
	s.draining = on
	s.mu.Unlock()
}

// Draining reports whether drain mode is on.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// handleSnapshot serves GET /v1/snapshot: the framed aggregator snapshot,
// ready to be written to disk and handed to floatd -resume.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodGet {
		http.Error(w, "dist: GET required", http.StatusMethodNotAllowed)
		return
	}
	blob, err := s.Snapshot()
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	w.Header().Set("Content-Type", "application/octet-stream")
	_, _ = w.Write(blob)
}

// handleDrain serves POST /v1/drain: {"off": true} re-opens task
// hand-out, anything else (including an empty body) starts draining. The
// response reports how much work is still in flight so operators can poll
// until it reaches zero and then snapshot.
func (s *Server) handleDrain(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		http.Error(w, "dist: POST required", http.StatusMethodNotAllowed)
		return
	}
	var req DrainRequest
	// The body is optional; a bare POST means "start draining".
	_ = json.NewDecoder(http.MaxBytesReader(w, r.Body, s.maxBody)).Decode(&req)
	s.mu.Lock()
	s.draining = !req.Off
	resp := DrainResponse{
		Draining:        s.draining,
		Outstanding:     s.outstanding,
		BufferedUpdates: len(s.deltas),
	}
	s.mu.Unlock()
	writeJSON(w, resp)
}
