package rl

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"floatfl/internal/checkpoint"
)

// AgentSnapshotKind is the checkpoint-frame kind Save writes and Load
// expects, so an agent file can never be fed to the engine restore path.
const AgentSnapshotKind = "rl-agent"

// snapshot is the serialized form of an agent's learned state. It carries
// enough metadata to refuse loads into an incompatible agent (different
// bin resolution or action space).
type snapshot struct {
	Version  int             `json:"version"`
	Bins     int             `json:"bins"`
	Actions  []string        `json:"actions"`
	Table    map[int][]cell  `json:"table"`
	AccCache map[int]float64 `json:"acc_cache"`
}

const snapshotVersion = 1

// buildSnapshot captures the agent's learned state (Q-table and feedback
// cache) for immediate marshaling: the maps alias the live agent.
// encoding/json emits integer map keys as strings, sorted, so the marshaled
// form is byte-stable for identical agent state.
func (a *Agent) buildSnapshot() snapshot {
	snap := snapshot{
		Version:  snapshotVersion,
		Bins:     a.cfg.Bins,
		Actions:  make([]string, len(a.actions)),
		Table:    a.table,
		AccCache: a.accCache,
	}
	for i, t := range a.actions {
		snap.Actions[i] = t.String()
	}
	return snap
}

// applySnapshot validates a decoded snapshot against the agent's
// configuration and, only if every check passes, replaces the Q-table and
// feedback cache. On error the agent is untouched.
func (a *Agent) applySnapshot(snap snapshot) error {
	if snap.Version != snapshotVersion {
		return &checkpoint.VersionError{Got: uint32(snap.Version)}
	}
	if snap.Bins != a.cfg.Bins {
		return &checkpoint.CompatError{Field: "bins",
			Got: strconv.Itoa(snap.Bins), Want: strconv.Itoa(a.cfg.Bins)}
	}
	if len(snap.Actions) != len(a.actions) {
		return &checkpoint.CompatError{Field: "action count",
			Got: strconv.Itoa(len(snap.Actions)), Want: strconv.Itoa(len(a.actions))}
	}
	for i, name := range snap.Actions {
		if a.actions[i].String() != name {
			return &checkpoint.CompatError{Field: fmt.Sprintf("action %d", i),
				Got: name, Want: a.actions[i].String()}
		}
	}
	for k, cs := range snap.Table {
		if len(cs) != len(a.actions) {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("rl snapshot state %d has %d cells, want %d", k, len(cs), len(a.actions))}
		}
	}
	// A snapshot may spell an empty map as null; the agent writes into both.
	a.table, a.accCache = snap.Table, snap.AccCache
	if a.table == nil {
		a.table = make(map[int][]cell)
	}
	if a.accCache == nil {
		a.accCache = make(map[int]float64)
	}
	return nil
}

// Save writes the agent's Q-table and feedback cache as a framed,
// checksummed snapshot (kind "rl-agent"). This is what makes the RLHF
// agent reusable across workloads (RQ3 / Fig 9): pre-train on one dataset,
// Save, Load into a new deployment, fine-tune online.
func (a *Agent) Save(w io.Writer) error {
	payload, err := json.Marshal(a.buildSnapshot())
	if err != nil {
		return fmt.Errorf("rl: encoding snapshot: %w", err)
	}
	return checkpoint.Encode(w, AgentSnapshotKind, payload)
}

// Load replaces the agent's Q-table and feedback cache with a previously
// saved snapshot. The frame's checksum is verified and the snapshot's bin
// resolution and action space must match the agent's configuration before
// anything is mutated; every failure is one of the checkpoint package's
// typed errors (ErrTruncated, ErrChecksum, *FormatError, *VersionError,
// *CompatError).
func (a *Agent) Load(r io.Reader) error {
	payload, err := checkpoint.Decode(r, AgentSnapshotKind)
	if err != nil {
		return err
	}
	var snap snapshot
	if err := json.Unmarshal(payload, &snap); err != nil {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("rl snapshot payload: %v", err)}
	}
	return a.applySnapshot(snap)
}

// MarshalJSON lets callers embed the cell type in snapshots; fields are
// exported through an alias to keep the wire format explicit.
func (c cell) MarshalJSON() ([]byte, error) {
	return json.Marshal(struct {
		QPart  float64 `json:"qp"`
		QAcc   float64 `json:"qa"`
		Visits int     `json:"n"`
	}{c.QPart, c.QAcc, c.Visits})
}

// UnmarshalJSON mirrors MarshalJSON.
func (c *cell) UnmarshalJSON(data []byte) error {
	var aux struct {
		QPart  float64 `json:"qp"`
		QAcc   float64 `json:"qa"`
		Visits int     `json:"n"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	c.QPart, c.QAcc, c.Visits = aux.QPart, aux.QAcc, aux.Visits
	return nil
}
