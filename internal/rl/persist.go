package rl

import (
	"fmt"
	"io"
	"strconv"

	"floatfl/internal/checkpoint"
	"floatfl/internal/opt"
)

// AgentSnapshotKind is the checkpoint-frame kind Save writes and Load
// expects, so an agent file can never be fed to the engine restore path.
const AgentSnapshotKind = "rl-agent"

// learned is the decoded form of an agent's transferable state. It carries
// enough metadata to refuse loads into an incompatible agent (different
// bin resolution or action space).
type learned struct {
	bins     int
	actions  []string
	table    map[int][]cell
	accCache map[int]float64
}

// learnedSize bounds the encoding appendLearned produces.
func (a *Agent) learnedSize() int {
	return 64 + 16*len(a.actions) + len(a.table)*(10+17*len(a.actions)) + 18*len(a.accCache)
}

// appendLearned writes the learned state (Q-table and feedback cache) —
// the one table encoder, shared by Save and CheckpointState: bins, the
// action names, then the visited states in key order (key, then QPart,
// QAcc and Visits of each action's cell), then the feedback cache in key
// order (key, value). Sorted keys make identical agents byte-identical.
func (a *Agent) appendLearned(e *checkpoint.Enc) {
	e.Int(a.cfg.Bins)
	e.Uvarint(uint64(len(a.actions)))
	for _, t := range a.actions {
		e.String(t.String())
	}
	e.Uvarint(uint64(len(a.table)))
	for _, k := range checkpoint.Keys(e, a.table) {
		e.Int(k)
		for _, c := range a.table[k] {
			e.Float64(c.QPart)
			e.Float64(c.QAcc)
			e.Int(c.Visits)
		}
	}
	e.FloatsByID(a.accCache)
}

// decodeLearned reads what appendLearned wrote. Every state holds exactly
// one cell per declared action, so a table with the wrong shape cannot be
// expressed; keys out of order (or repeated) latch a format error on d.
func decodeLearned(d *checkpoint.Dec) learned {
	l := learned{bins: d.Int()}
	l.actions = make([]string, d.Count(1))
	for i := range l.actions {
		l.actions[i] = d.String()
	}
	width := len(l.actions)
	states := d.Count(1 + 17*width)
	l.table = make(map[int][]cell, states)
	cells := make([]cell, states*width)
	for i, prev := 0, 0; i < states; i++ {
		k := d.Key(i, prev)
		prev = k
		row := cells[i*width : (i+1)*width : (i+1)*width]
		for j := range row {
			row[j] = cell{QPart: d.Float64(), QAcc: d.Float64(), Visits: d.Int()}
		}
		l.table[k] = row
	}
	l.accCache = d.FloatsByID()
	return l
}

// compatible checks a decoded learned state against the agent's
// configuration; nothing is mutated.
func (a *Agent) compatible(l learned) error {
	if l.bins != a.cfg.Bins {
		return &checkpoint.CompatError{Field: "bins",
			Got: strconv.Itoa(l.bins), Want: strconv.Itoa(a.cfg.Bins)}
	}
	if len(l.actions) != len(a.actions) {
		return &checkpoint.CompatError{Field: "action count",
			Got: strconv.Itoa(len(l.actions)), Want: strconv.Itoa(len(a.actions))}
	}
	for i, name := range l.actions {
		if a.actions[i].String() != name {
			return &checkpoint.CompatError{Field: fmt.Sprintf("action %d", i),
				Got: name, Want: a.actions[i].String()}
		}
	}
	return nil
}

// Save writes the agent's Q-table and feedback cache as a framed,
// checksummed snapshot (kind "rl-agent"). This is what makes the RLHF
// agent reusable across workloads (RQ3 / Fig 9): pre-train on one dataset,
// Save, Load into a new deployment, fine-tune online.
func (a *Agent) Save(w io.Writer) error {
	e := checkpoint.Begin(AgentSnapshotKind, a.learnedSize())
	a.appendLearned(e)
	frame, err := e.Finish()
	if err != nil {
		return fmt.Errorf("rl: encoding snapshot: %w", err)
	}
	_, err = w.Write(frame)
	return err
}

// Load replaces the agent's Q-table and feedback cache with a previously
// saved snapshot. The frame's checksum is verified and the snapshot's bin
// resolution and action space must match the agent's configuration before
// anything is mutated; every failure is one of the checkpoint package's
// typed errors (ErrTruncated, ErrChecksum, *FormatError, *VersionError,
// *CompatError).
func (a *Agent) Load(r io.Reader) error {
	l, err := readLearned(r)
	if err != nil {
		return err
	}
	if err := a.compatible(l); err != nil {
		return err
	}
	a.table, a.accCache = l.table, l.accCache
	return nil
}

// ReadAgent builds an agent with a saved snapshot's own bin resolution and
// action space (other settings default), so an agent file can be inspected
// without knowing how it was trained. Failures are typed as for Load; no
// bins, no actions or an unknown action name is a *FormatError.
func ReadAgent(r io.Reader) (*Agent, error) {
	l, err := readLearned(r)
	if err != nil {
		return nil, err
	}
	if l.bins <= 0 || len(l.actions) == 0 {
		return nil, &checkpoint.FormatError{Reason: fmt.Sprintf("agent snapshot has %d bins, %d actions", l.bins, len(l.actions))}
	}
	actions := make([]opt.Technique, len(l.actions))
	for i, name := range l.actions {
		if actions[i], err = opt.Parse(name); err != nil {
			return nil, &checkpoint.FormatError{Reason: err.Error()}
		}
	}
	a := NewAgent(Config{Bins: l.bins, Actions: actions})
	a.table, a.accCache = l.table, l.accCache
	return a, nil
}

// readLearned decodes a whole agent file: the frame, then the learned state.
func readLearned(r io.Reader) (learned, error) {
	payload, err := checkpoint.Decode(r, AgentSnapshotKind)
	if err != nil {
		return learned{}, err
	}
	d := checkpoint.NewDec(payload)
	l := decodeLearned(d)
	return l, d.Done()
}
