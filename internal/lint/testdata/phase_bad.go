// Fixture: phase-contract violations — a fan-out job literal handed to
// forEachSlot that writes the ledger directly and through a helper (the
// check is call-graph transitive), one that pins a working-set entry, a
// job handed over as a method value, and a training job reaching into the
// working set (deriving a shard into its own buffer is fine). The types are
// defined locally: the contract matches by (receiver, method) name, which
// lets the fixture stay self-contained.
package fixture

type Ledger struct{ rows []int }

func (l *Ledger) Record(v int) { l.rows = append(l.rows, v) }
func (l *Ledger) Rows() []int  { return l.rows }

type Cache struct{ pins map[int]int }

func (c *Cache) Acquire(id int) int { c.pins[id]++; return id }
func (c *Cache) Release(id int)     { c.pins[id]-- }

func forEachSlot(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func runRound(led *Ledger, wc *Cache) {
	forEachSlot(4, func(i int) {
		led.Record(i) // want phase-contract (direct ledger write in a fan-out job)
		tally(led, i)
	})
	forEachSlot(2, func(i int) {
		wc.Acquire(i) // want phase-contract (pin-state mutation in a fan-out job)
	})
}

func tally(led *Ledger, i int) {
	led.Record(i * 2) // want phase-contract (transitive, one hop from the job)
}

type roundState struct{ led *Ledger }

func (s *roundState) runRound() { forEachSlot(4, s.job) }

func (s *roundState) job(i int) {
	s.led.Record(i) // want phase-contract (job handed to forEachSlot as a method value)
}

type Population struct{ wc *Cache }

func (p *Population) Client(id int) int         { return p.wc.pins[id] }
func (p *Population) ShardInto(id, buf int) int { return id + buf }

func (c *Cache) Get(id int) int { return c.pins[id] }

// A training job may derive its client's shard into its own buffer and
// touch nothing else of the population: loading a key through the cache or
// reading a client through the population from inside the job puts cache
// mutation on a worker and its order up to the scheduler.
func trainJobs(p *Population, ids []int) {
	shards := make([]int, len(ids))
	forEachSlot(len(ids), func(i int) {
		shards[i] = p.ShardInto(ids[i], i) // the sanctioned part: a shard derived into the job's own buffer
		p.wc.Get(ids[i])                   // want phase-contract (training job loads through the cache)
		p.Client(ids[i])                   // want phase-contract (training job reads through the cache)
	})
	p.Client(ids[0]) // dispatch thread: fine
}
