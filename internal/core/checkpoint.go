package core

import (
	"fmt"

	"floatfl/internal/checkpoint"
	"floatfl/internal/rl"
)

// CheckpointState captures the controller: the mode, the collective agent
// (or every materialized per-client agent, in client-ID order, each as the
// rl package's own checkpoint section) and the pending decision states in
// client-ID order. The pending map is non-empty at the async engine's
// checkpoint boundary (in-flight clients have received decisions but not
// yet reported feedback), so it must travel with the snapshot.
func (f *Float) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(1024)
	e.Bool(f.agent == nil)
	if f.agent != nil {
		if err := e.Stateful(f.agent); err != nil {
			return nil, err
		}
	} else {
		ids := checkpoint.SortedKeys(f.perClient)
		e.Uvarint(uint64(len(ids)))
		for _, id := range ids {
			e.Int(id)
			if err := e.Stateful(f.perClient[id]); err != nil {
				return nil, err
			}
		}
	}
	ids := checkpoint.SortedKeys(f.pending)
	e.Uvarint(uint64(len(ids)))
	for _, id := range ids {
		s := f.pending[id]
		e.Int(id)
		for _, v := range [...]int{s.GB, s.GE, s.GK, s.CPU, s.Mem, s.Net, s.HF} {
			e.Int(v)
		}
	}
	return e.Bytes(), nil
}

// RestoreCheckpoint restores a captured controller state. The mode
// (collective vs per-client) must match; per-client agents are recreated
// with their deterministic per-client seeds before their states are
// applied, so their RNG streams continue exactly. The controller is
// written only after every section has decoded and every agent has
// accepted its state.
func (f *Float) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	perClientMode := d.Bool()
	var agentBlob []byte
	var agentIDs []int
	var agentBlobs [][]byte
	if !perClientMode {
		agentBlob = d.RawBytes()
	} else {
		n := d.Count(2)
		agentIDs, agentBlobs = make([]int, n), make([][]byte, n)
		for i := range agentIDs {
			prev := 0
			if i > 0 {
				prev = agentIDs[i-1]
			}
			agentIDs[i], agentBlobs[i] = d.Key(i, prev), d.RawBytes()
		}
	}
	nPending := d.Count(8)
	pending := make(map[int]rl.State, nPending)
	for i, prev := 0, 0; i < nPending; i++ {
		id := d.Key(i, prev)
		pending[id] = rl.State{GB: d.Int(), GE: d.Int(), GK: d.Int(), CPU: d.Int(), Mem: d.Int(), Net: d.Int(), HF: d.Int()}
		prev = id
	}
	if err := d.Done(); err != nil {
		return fmt.Errorf("float controller state: %w", err)
	}
	if want := f.agent == nil; perClientMode != want {
		return &checkpoint.CompatError{Field: "controller mode",
			Got: modeName(perClientMode), Want: modeName(want)}
	}
	if f.agent != nil {
		if err := f.agent.RestoreCheckpoint(agentBlob); err != nil {
			return err
		}
	} else {
		// Recreate agents in client-ID order so idempotent metric
		// registration happens in a deterministic sequence; the fresh map is
		// installed only once every agent has restored.
		prev := f.perClient
		f.perClient = make(map[int]*rl.Agent, len(agentIDs))
		for i, id := range agentIDs {
			if err := f.agentFor(id).RestoreCheckpoint(agentBlobs[i]); err != nil {
				f.perClient = prev
				return err
			}
		}
	}
	f.pending = pending
	return nil
}

func modeName(perClient bool) string {
	if perClient {
		return "per-client"
	}
	return "collective"
}

// CheckpointState captures the heuristic controller: its only mutable
// state is its tie-breaking RNG position.
func (h *Heuristic) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(10)
	e.Uvarint(h.rng.Pos())
	return e.Bytes(), nil
}

// RestoreCheckpoint restores a heuristic controller snapshot.
func (h *Heuristic) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	draws := d.Draws()
	if err := d.Done(); err != nil {
		return fmt.Errorf("heuristic controller state: %w", err)
	}
	h.rng.SeekTo(draws)
	return nil
}
