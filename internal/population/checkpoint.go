package population

import (
	"fmt"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// State is a population's residency-independent checkpoint: everything
// needed to make a freshly constructed population of the same Config
// behave bit-identically to the captured one.
//
// Client state itself is never serialized — it is a pure function of
// (seed, clientID) plus each client's battery drain log, so the drain logs
// are the only per-client payload. For lazy populations the device
// working set additionally matters for telemetry (hit/miss/eviction counts
// depend on residency), so its unpinned LRU order and counters are
// captured too; pinned residency is deliberately absent — pins belong to
// in-flight work, and the engine rebuilds them by re-acquiring the clients
// its restored tasks reference.
type State struct {
	DrainLogs []ClientDrainLog
	// ShardLRU and ShardStats hold the place of the retired shard cache:
	// written empty and zero, read and ignored, so older snapshots load.
	// DevLRU holds the unpinned resident IDs of the lazy device cache in
	// least-recently-used-first order (empty in eager mode).
	ShardLRU, DevLRU []int
	// DevStats are the captured device-cache counters; they also
	// re-baseline FlushObs's delta tracking on restore.
	ShardStats, DevStats wset.Stats
}

// ClientDrainLog pairs a client ID with its battery drain log.
type ClientDrainLog struct {
	Client int
	Drains []trace.DrainEvent
}

// AppendCheckpoint writes the population's state as one checkpoint
// section: the drain logs in client-ID order (count; per client its ID, an
// event count, then step and fraction of each event), the (empty) shard
// and the device LRU orders, the (zero) shard and the device counters.
// Must be called from the engines' single-threaded quiescent boundary.
func (p *Population) AppendCheckpoint(e *checkpoint.Enc) {
	var logs []ClientDrainLog
	var devLRU []int
	var devStats wset.Stats
	if p.Eager() {
		for id, c := range p.clients {
			if log := c.Avail.DrainLog(); log != nil {
				logs = append(logs, ClientDrainLog{Client: id, Drains: log})
			}
		}
	} else {
		byID := p.drainState()
		for _, id := range checkpoint.SortedKeys(byID) {
			logs = append(logs, ClientDrainLog{Client: id, Drains: byID[id]})
		}
		devLRU, devStats = p.devs.UnpinnedKeys(), p.devs.Stats()
	}
	e.Uvarint(uint64(len(logs)))
	for _, cl := range logs {
		e.Int(cl.Client)
		e.Uvarint(uint64(len(cl.Drains)))
		for _, ev := range cl.Drains {
			e.Int(ev.Step)
			e.Float64(ev.Frac)
		}
	}
	e.Ints(nil) // ShardLRU
	e.Ints(devLRU)
	for _, cs := range []wset.Stats{{}, devStats} {
		e.Int64(cs.Hits)
		e.Int64(cs.Misses)
		e.Int64(cs.Evictions)
		e.Int(cs.Resident)
		e.Int(cs.Peak)
	}
}

// DecodeState reads what AppendCheckpoint wrote; a malformed section
// latches d's error.
func DecodeState(d *checkpoint.Dec) *State {
	st := &State{DrainLogs: make([]ClientDrainLog, d.Count(2))}
	for i := range st.DrainLogs {
		cl := ClientDrainLog{Client: d.Int(), Drains: make([]trace.DrainEvent, d.Count(1+8))}
		for j := range cl.Drains {
			cl.Drains[j] = trace.DrainEvent{Step: d.Int(), Frac: d.Float64()}
		}
		st.DrainLogs[i] = cl
	}
	st.ShardLRU, st.DevLRU = d.Ints(), d.Ints()
	for _, cs := range []*wset.Stats{&st.ShardStats, &st.DevStats} {
		*cs = wset.Stats{Hits: d.Int64(), Misses: d.Int64(), Evictions: d.Int64(), Resident: d.Int(), Peak: d.Int()}
	}
	return st
}

// drainState returns every drain log a lazy population knows about: the
// evicted-client store plus the logs of currently resident (pinned or not)
// clients. Together with the config it is the population's complete
// client-visible mutable state.
func (p *Population) drainState() map[int][]trace.DrainEvent {
	logs := make(map[int][]trace.DrainEvent, len(p.drainLogs))
	for id, log := range p.drainLogs {
		logs[id] = log
	}
	p.devs.Range(func(id int, c *device.Client, _ bool) {
		if log := c.Avail.DrainLog(); log != nil {
			logs[id] = log
		}
	})
	return logs
}

// RestoreDrainLogs is restore phase one: install the captured drain logs
// on a freshly constructed population. For eager populations the logs are
// replayed onto the dense clients (which must not have generated any
// trace steps yet); for lazy populations they seed the drain-log store so
// every future derivation replays them, which requires that none has
// happened yet.
//
// The whole State is validated here, before anything is installed; a
// rejected one (*checkpoint.FormatError, or *checkpoint.CompatError for a
// population that is not fresh) leaves the population untouched.
//
// The engine then re-acquires any in-flight clients (rebuilding pinned
// residency) before calling RestoreResidency.
func (p *Population) RestoreDrainLogs(st *State) error {
	for i, cl := range st.DrainLogs {
		if cl.Client < 0 || cl.Client >= p.n || (i > 0 && cl.Client <= st.DrainLogs[i-1].Client) {
			return &checkpoint.FormatError{Reason: fmt.Sprintf(
				"population: drain log for client %d out of order or outside a population of %d", cl.Client, p.n)}
		}
	}
	// An unpinned working set never exceeds its cache, and an eager
	// population has none: RestoreResidency derives every listed client.
	if lru := st.DevLRU; p.Eager() && len(lru) > 0 || !p.Eager() && len(lru) > p.devs.Capacity() {
		return &checkpoint.FormatError{Reason: fmt.Sprintf("population: %d resident clients exceed the working set", len(lru))}
	}
	for _, id := range st.DevLRU {
		if id < 0 || id >= p.n {
			return &checkpoint.FormatError{Reason: fmt.Sprintf("population: resident client %d outside a population of %d", id, p.n)}
		}
	}
	if p.Eager() {
		for _, cl := range st.DrainLogs {
			if steps := p.clients[cl.Client].Avail.StepsGenerated(); steps > 0 {
				return notFresh(fmt.Sprintf("client %d already generated %d steps", cl.Client, steps))
			}
		}
		for _, cl := range st.DrainLogs {
			p.clients[cl.Client].Avail.ReplayDrains(cl.Drains)
		}
		return nil
	}
	if res := p.devs.Stats().Resident; res != 0 || len(p.drainLogs) != 0 {
		return notFresh(fmt.Sprintf("%d clients resident, %d drain logs", res, len(p.drainLogs)))
	}
	for _, cl := range st.DrainLogs {
		p.drainLogs[cl.Client] = cl.Drains
	}
	return nil
}

// notFresh is the typed refusal to restore into a population that has
// already been used.
func notFresh(got string) error {
	return &checkpoint.CompatError{Field: "population", Got: got, Want: "freshly constructed"}
}

// RestoreResidency is restore phase two (lazy mode only; a no-op when
// eager): replay the unpinned device LRU order through the cache, then
// overwrite its counters and FlushObs baseline with the captured values so
// the rebuild itself leaves no telemetry trace. Call after any
// pinned clients have been re-acquired: an Acquire passes transiently
// through the unpinned list before pinning, so acquiring into an
// already-warmed full cache would overflow capacity for an instant and
// evict an entry the capture knew was resident.
func (p *Population) RestoreResidency(st *State) {
	if p.Eager() {
		return
	}
	p.devs.Warm(st.DevLRU)
	p.devs.SetStats(st.DevStats)
	p.devObs.last = st.DevStats
}
