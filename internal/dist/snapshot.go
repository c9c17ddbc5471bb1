package dist

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sort"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/trace"
)

// ServerSnapshotKind frames aggregator snapshots served by /v1/snapshot.
const ServerSnapshotKind = "dist-server"

// serverClientState persists one registration: identity plus the
// capability profile the controller keys its decisions on. Task holds and
// leases are deliberately absent — they die with the process, and the
// idempotent task protocol lets survivors simply re-fetch.
type serverClientState struct {
	ID       int     `json:"id"`
	Name     string  `json:"name,omitempty"`
	GFLOPS   float64 `json:"gflops"`
	MemoryMB float64 `json:"memory_mb"`
	Tech     string  `json:"tech,omitempty"`
}

// serverState is the JSON payload inside a dist-server frame.
type serverState struct {
	Arch         string              `json:"arch"`
	InDim        int                 `json:"in_dim"`
	Classes      int                 `json:"classes"`
	Round        int                 `json:"round"`
	NextClientID int                 `json:"next_client_id"`
	Model        []byte              `json:"model"`
	Clients      []serverClientState `json:"clients,omitempty"`
	Deltas       [][]float64         `json:"deltas,omitempty"`
	Weights      []float64           `json:"weights,omitempty"`
	HoldoutAcc   float64             `json:"holdout_acc"`
	Controller   []byte              `json:"controller,omitempty"`
	Obs          *obs.Snapshot       `json:"obs,omitempty"`
	Timeline     []byte              `json:"timeline,omitempty"`
}

// Snapshot serializes the aggregator's durable state — global model,
// round counter, client registry, buffered updates, controller state, and
// the metrics registry — into a checksummed frame. Callers normally drain
// first so no outstanding work is lost.
func (s *Server) Snapshot() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
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
		HoldoutAcc:   s.holdoutAcc,
	}
	ids := make([]int, 0, len(s.clients))
	for id := range s.clients {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		ci := s.clients[id]
		st.Clients = append(st.Clients, serverClientState{
			ID:       id,
			Name:     ci.name,
			GFLOPS:   ci.dev.Compute.GFLOPS,
			MemoryMB: ci.dev.Compute.MemoryMB,
			Tech:     ci.tech.String(),
		})
	}
	for i, d := range s.deltas {
		st.Deltas = append(st.Deltas, append([]float64(nil), d...))
		st.Weights = append(st.Weights, s.weights[i])
	}
	if cs, ok := s.cfg.Controller.(checkpoint.Stateful); ok {
		b, err := cs.CheckpointState()
		if err != nil {
			return nil, fmt.Errorf("dist: snapshot controller: %w", err)
		}
		st.Controller = b
	}
	snap := s.metrics.Snapshot()
	st.Obs = &snap
	if st.Timeline, err = s.timeline.CheckpointState(); err != nil {
		return nil, fmt.Errorf("dist: snapshot timeline: %w", err)
	}
	payload, err := json.Marshal(st)
	if err != nil {
		return nil, err
	}
	return checkpoint.EncodeBytes(ServerSnapshotKind, payload)
}

// RestoreSnapshot loads a frame produced by Snapshot into a freshly built
// server. Validation of the server's own state (checksum, kind, spec
// compatibility, technique names, buffered-delta lengths, the model blob)
// completes before anything is touched, so a snapshot rejected there leaves
// the server exactly as NewServer built it; the controller, metrics and
// timeline sections are validated by their owners as they are restored.
// Outstanding tasks are not resurrected: surviving clients re-fetch and
// stale uploads get the usual 409.
func (s *Server) RestoreSnapshot(data []byte) error {
	payload, err := checkpoint.DecodeBytes(data, ServerSnapshotKind)
	if err != nil {
		return err
	}
	var st serverState
	if err := json.Unmarshal(payload, &st); err != nil {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("server state: %v", err)}
	}
	s.mu.Lock()
	defer s.mu.Unlock()
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
	for _, d := range st.Deltas {
		if len(d) != s.global.NumParams() {
			return &checkpoint.CompatError{
				Field: "delta_len",
				Got:   fmt.Sprint(len(d)),
				Want:  fmt.Sprint(s.global.NumParams()),
			}
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
		return fmt.Errorf("dist: restore model: %w", err)
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
		ci := &clientInfo{
			name: c.Name,
			tech: techs[i],
			dev: &device.Client{
				ID: c.ID,
				Compute: trace.ComputeProfile{
					GFLOPS:         clampFinite(c.GFLOPS, 0.1, 1e4, 10),
					MemoryMB:       clampFinite(c.MemoryMB, 16, 1e6, 2000),
					EnergyCapacity: 2,
				},
			},
			taskRound: -1,
		}
		s.clients[c.ID] = ci
		if c.Name != "" {
			s.byName[c.Name] = c.ID
		}
	}
	s.deltas = s.deltas[:0]
	s.weights = s.weights[:0]
	for i, d := range st.Deltas {
		s.deltas = append(s.deltas, append([]float64(nil), d...))
		s.weights = append(s.weights, st.Weights[i])
	}
	if st.Obs != nil {
		if err := s.metrics.RestoreSnapshot(*st.Obs); err != nil {
			return fmt.Errorf("dist: restore metrics: %w", err)
		}
	}
	if len(st.Timeline) > 0 {
		if err := s.timeline.RestoreCheckpoint(st.Timeline); err != nil {
			return fmt.Errorf("dist: restore timeline: %w", err)
		}
	}
	if s.holdoutAcc != 0 {
		s.obs.holdoutAcc.Set(s.holdoutAcc)
	}
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
