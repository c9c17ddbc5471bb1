package core

import (
	"encoding/json"
	"sort"

	"floatfl/internal/checkpoint"
	"floatfl/internal/rl"
)

// floatState is the FLOAT controller's complete mutable state. The pending
// map is non-empty at the async engine's checkpoint boundary (in-flight
// clients have received decisions but not yet reported feedback), so it
// must travel with the snapshot. Agent blobs are the rl package's own
// checkpoint encodings; []byte fields marshal as base64, and the int-keyed
// maps marshal with sorted keys, keeping the whole encoding byte-stable.
type floatState struct {
	PerClientMode bool             `json:"per_client_mode"`
	Agent         []byte           `json:"agent,omitempty"`
	PerClient     map[int][]byte   `json:"per_client,omitempty"`
	Pending       map[int]rl.State `json:"pending,omitempty"`
}

// CheckpointState captures the controller: the collective agent (or every
// materialized per-client agent) plus the pending decision states.
func (f *Float) CheckpointState() ([]byte, error) {
	st := floatState{PerClientMode: f.agent == nil, Pending: f.pending}
	if f.agent != nil {
		blob, err := f.agent.CheckpointState()
		if err != nil {
			return nil, err
		}
		st.Agent = blob
	} else {
		st.PerClient = make(map[int][]byte, len(f.perClient))
		for id, a := range f.perClient {
			blob, err := a.CheckpointState()
			if err != nil {
				return nil, err
			}
			st.PerClient[id] = blob
		}
	}
	return json.Marshal(st)
}

// RestoreCheckpoint restores a captured controller state. The mode
// (collective vs per-client) must match; per-client agents are recreated
// with their deterministic per-client seeds before their states are
// applied, so their RNG streams continue exactly.
func (f *Float) RestoreCheckpoint(data []byte) error {
	var st floatState
	if err := json.Unmarshal(data, &st); err != nil {
		return &checkpoint.FormatError{Reason: "float controller state: " + err.Error()}
	}
	if got, want := st.PerClientMode, f.agent == nil; got != want {
		return &checkpoint.CompatError{Field: "controller mode",
			Got: modeName(got), Want: modeName(want)}
	}
	if f.agent != nil {
		if err := f.agent.RestoreCheckpoint(st.Agent); err != nil {
			return err
		}
	} else {
		// Recreate agents in sorted ID order so idempotent metric
		// registration happens in a deterministic sequence.
		ids := make([]int, 0, len(st.PerClient))
		for id := range st.PerClient {
			ids = append(ids, id)
		}
		sort.Ints(ids)
		fresh := make(map[int]*rl.Agent, len(ids))
		prev := f.perClient
		f.perClient = fresh
		for _, id := range ids {
			a := f.agentFor(id)
			if err := a.RestoreCheckpoint(st.PerClient[id]); err != nil {
				f.perClient = prev
				return err
			}
		}
	}
	f.pending = st.Pending
	if f.pending == nil {
		f.pending = make(map[int]rl.State)
	}
	return nil
}

func modeName(perClient bool) string {
	if perClient {
		return "per-client"
	}
	return "collective"
}

// heuristicState is the heuristic controller's only mutable state: its
// tie-breaking RNG position.
type heuristicState struct {
	Draws uint64 `json:"draws"`
}

// CheckpointState captures the heuristic controller.
func (h *Heuristic) CheckpointState() ([]byte, error) {
	return json.Marshal(heuristicState{Draws: h.src.Pos()})
}

// RestoreCheckpoint restores a heuristic controller snapshot.
func (h *Heuristic) RestoreCheckpoint(data []byte) error {
	var st heuristicState
	if err := json.Unmarshal(data, &st); err != nil {
		return &checkpoint.FormatError{Reason: "heuristic controller state: " + err.Error()}
	}
	h.src.SeekTo(st.Draws)
	return nil
}
