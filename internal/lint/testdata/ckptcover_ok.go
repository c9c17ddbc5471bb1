// Fixture: the sanctioned checkpoint-coverage shapes — full coverage
// through helper methods (the rule is call-graph transitive, so reading a
// field in a helper called by CheckpointState counts), an encoder body
// reached only through an interface (an Appender's AppendCheckpoint), a
// constructor-only field (not mutable state), and one explicitly
// allowlisted derived-cache omission. Must produce zero findings.
package fixture

import "encoding/binary"

type gauge struct {
	total uint64
	limit uint64 // set only by newGauge: configuration, not mutable state
	//lint:allow ckpt-coverage fixture: derived cache, rebuilt lazily from total on first read
	cached uint64
}

func newGauge(limit uint64) *gauge {
	return &gauge{limit: limit}
}

func (g *gauge) Add(v uint64) {
	g.total += v
	g.cached = g.total / 2
}

func (g *gauge) CheckpointState() ([]byte, error) {
	return g.snapshot(), nil
}

func (g *gauge) snapshot() []byte {
	buf := make([]byte, 8)
	binary.LittleEndian.PutUint64(buf, g.total)
	return buf
}

func (g *gauge) RestoreCheckpoint(b []byte) error {
	g.apply(binary.LittleEndian.Uint64(b))
	return nil
}

func (g *gauge) apply(total uint64) {
	g.total = total
	g.cached = 0
}

// Enc and appender stand in for checkpoint.Enc and checkpoint.Appender.
type Enc struct{ b []byte }

type appender interface{ AppendCheckpoint(e *Enc) error }

// stateOf reaches AppendCheckpoint only through the interface.
func stateOf(a appender) ([]byte, error) {
	var e Enc
	err := a.AppendCheckpoint(&e)
	return e.b, err
}

type meter struct{ ticks uint64 }

func (m *meter) Tick() { m.ticks++ }

func (m *meter) AppendCheckpoint(e *Enc) error {
	e.b = binary.LittleEndian.AppendUint64(e.b, m.ticks)
	return nil
}

func (m *meter) CheckpointState() ([]byte, error) { return stateOf(m) }

func (m *meter) RestoreCheckpoint(b []byte) error {
	m.ticks = binary.LittleEndian.Uint64(b)
	return nil
}
