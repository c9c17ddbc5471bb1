package population

import (
	"fmt"
	"sort"

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
// are the only per-client payload. For lazy populations the working-set
// caches additionally matter for telemetry (hit/miss/eviction counts
// depend on residency), so the unpinned LRU orders and the cache counters
// are captured too; pinned residency is deliberately absent — pins belong
// to in-flight work, and the engine rebuilds them by re-acquiring the
// clients its restored tasks reference.
type State struct {
	DrainLogs []ClientDrainLog `json:"drain_logs,omitempty"`
	// ShardLRU / DevLRU hold the unpinned resident IDs of the two lazy
	// caches in least-recently-used-first order (empty in eager mode).
	ShardLRU []int `json:"shard_lru,omitempty"`
	DevLRU   []int `json:"dev_lru,omitempty"`
	// ShardStats / DevStats are the captured cache counters; they also
	// re-baseline FlushObs's delta tracking on restore.
	ShardStats wset.Stats `json:"shard_stats"`
	DevStats   wset.Stats `json:"dev_stats"`
}

// ClientDrainLog pairs a client ID with its battery drain log.
type ClientDrainLog struct {
	Client int                `json:"client"`
	Drains []trace.DrainEvent `json:"drains"`
}

// CheckpointState captures the population's state. Must be called from
// the engines' single-threaded quiescent boundary.
func (p *Population) CheckpointState() (*State, error) {
	st := &State{}
	if p.Eager() {
		for id, c := range p.clients {
			if log := c.Avail.DrainLog(); log != nil {
				st.DrainLogs = append(st.DrainLogs, ClientDrainLog{Client: id, Drains: log})
			}
		}
		return st, nil
	}
	logs := p.drainState()
	ids := make([]int, 0, len(logs))
	for id := range logs {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		st.DrainLogs = append(st.DrainLogs, ClientDrainLog{Client: id, Drains: logs[id]})
	}
	st.ShardLRU = p.shards.UnpinnedKeys()
	st.DevLRU = p.devs.UnpinnedKeys()
	st.ShardStats, st.DevStats = p.Stats()
	return st, nil
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
// The engine then re-acquires any in-flight clients (rebuilding pinned
// residency) before calling RestoreResidency.
func (p *Population) RestoreDrainLogs(st *State) error {
	if st == nil {
		return fmt.Errorf("population: nil checkpoint state")
	}
	for _, cl := range st.DrainLogs {
		if cl.Client < 0 || cl.Client >= p.n {
			return fmt.Errorf("population: drain log for client %d, population has %d", cl.Client, p.n)
		}
	}
	if p.Eager() {
		for _, cl := range st.DrainLogs {
			av := p.clients[cl.Client].Avail
			if av.StepsGenerated() > 0 {
				return fmt.Errorf("population: restore requires a fresh population (client %d already generated %d steps)",
					cl.Client, av.StepsGenerated())
			}
			av.ReplayDrains(cl.Drains)
		}
		return nil
	}
	if res := p.devs.Stats().Resident; res != 0 || len(p.drainLogs) != 0 {
		return fmt.Errorf("population: drain-log restore requires a fresh population (cache %d, logs %d)",
			res, len(p.drainLogs))
	}
	for _, cl := range st.DrainLogs {
		p.drainLogs[cl.Client] = cl.Drains
	}
	return nil
}

// RestoreResidency is restore phase two (lazy mode only; a no-op when
// eager): replay the unpinned LRU orders through the caches, then
// overwrite the cache counters and FlushObs baselines with the captured
// values so the rebuild itself leaves no telemetry trace. Call after any
// pinned clients have been re-acquired: an Acquire passes transiently
// through the unpinned list before pinning, so acquiring into an
// already-warmed full cache would overflow capacity for an instant and
// evict an entry the capture knew was resident.
func (p *Population) RestoreResidency(st *State) {
	if p.Eager() || st == nil {
		return
	}
	p.shards.Warm(st.ShardLRU)
	p.devs.Warm(st.DevLRU)
	p.shards.SetStats(st.ShardStats)
	p.devs.SetStats(st.DevStats)
	p.shardObs.last, p.devObs.last = st.ShardStats, st.DevStats
}
