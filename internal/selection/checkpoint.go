// Checkpoint support: every built-in selector implements
// checkpoint.Stateful. State blobs are checkpoint.Enc sections with
// map-keyed content emitted in key order, so a snapshot of identical
// selector state is byte-identical across processes. RNG streams are
// serialized as (seed-implied) draw positions via rngstate; restore seeks
// the existing stream rather than replacing it, which keeps the selector's
// seed wiring intact. Every restore decodes into locals and checks Done
// before it writes, so a rejected blob (*checkpoint.FormatError) leaves
// the selector untouched.
package selection

import (
	"fmt"

	"floatfl/internal/checkpoint"
)

// CheckpointState captures the Random selector (its RNG position is its
// only mutable state).
func (r *Random) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(10)
	e.Uvarint(r.rng.Pos())
	return e.Bytes(), nil
}

// RestoreCheckpoint restores a Random selector snapshot.
func (r *Random) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	draws := d.Draws()
	if err := d.Done(); err != nil {
		return fmt.Errorf("selection: random state: %w", err)
	}
	r.rng.SeekTo(draws)
	return nil
}

// CheckpointState captures the Oort selector: the RNG position, utility
// and response EMAs, the known set (sorted IDs), blacklist counters, and
// the pacer state.
func (o *Oort) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(64 + 11*(len(o.statUtil)+len(o.respSecs)) + 3*len(o.tried) + 4*len(o.failures))
	e.Uvarint(o.rng.Pos())
	e.FloatsByID(o.statUtil)
	e.FloatsByID(o.respSecs)
	e.Ints(checkpoint.SortedKeys(o.tried))
	e.IntsByID(o.failures)
	e.Float64(o.pacerT)
	e.Int(o.windowOK)
	e.Int(o.windowTotal)
	return e.Bytes(), nil
}

// RestoreCheckpoint restores an Oort selector snapshot.
func (o *Oort) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	draws := d.Draws()
	statUtil, respSecs := d.FloatsByID(), d.FloatsByID()
	triedIDs := d.Ints()
	failures := d.IntsByID()
	pacerT, windowOK, windowTotal := d.Float64(), d.Int(), d.Int()
	if err := d.Done(); err != nil {
		return fmt.Errorf("selection: oort state: %w", err)
	}
	o.statUtil, o.respSecs, o.failures = statUtil, respSecs, failures
	o.tried = make(map[int]bool, len(triedIDs))
	for _, id := range triedIDs {
		o.tried[id] = true
	}
	o.pacerT, o.windowOK, o.windowTotal = pacerT, windowOK, windowTotal
	o.rng.SeekTo(draws)
	return nil
}

// CheckpointState captures the REFL selector: the RNG position,
// availability histories (per client in ID order, a counted run of
// bools), response EMAs, and participation recency.
func (r *REFL) CheckpointState() ([]byte, error) {
	e := checkpoint.NewEnc(64 + 16*len(r.history) + 11*len(r.respSecs) + 4*len(r.lastPart))
	e.Uvarint(r.rng.Pos())
	e.Uvarint(uint64(len(r.history)))
	for _, id := range checkpoint.SortedKeys(r.history) {
		e.Int(id)
		e.Uvarint(uint64(len(r.history[id])))
		for _, up := range r.history[id] {
			e.Bool(up)
		}
	}
	e.FloatsByID(r.respSecs)
	e.IntsByID(r.lastPart)
	return e.Bytes(), nil
}

// RestoreCheckpoint restores a REFL selector snapshot.
func (r *REFL) RestoreCheckpoint(data []byte) error {
	d := checkpoint.NewDec(data)
	draws := d.Draws()
	n := d.Count(2)
	history := make(map[int][]bool, n)
	for i, prev := 0, 0; i < n; i++ {
		id := d.Key(i, prev)
		h := make([]bool, d.Count(1))
		for j := range h {
			h[j] = d.Bool()
		}
		history[id], prev = h, id
	}
	respSecs, lastPart := d.FloatsByID(), d.IntsByID()
	if err := d.Done(); err != nil {
		return fmt.Errorf("selection: refl state: %w", err)
	}
	r.history, r.respSecs, r.lastPart = history, respSecs, lastPart
	r.rng.SeekTo(draws)
	return nil
}
