// Package wset is the lazy population's working set: a bounded, pinned,
// load-through LRU cache keyed by client ID. It is the one place mutable
// working-set state lives; what it loads — in the simulator, a client's
// device state — is a pure function of the key, supplied at construction.
//
// The cache holds at most Capacity *unpinned* entries. Pinned entries
// (clients owned by an in-flight round) are never evicted and do not count
// against the bound, so residency is always ≤ capacity + pinned. Eviction
// order is strict LRU over unpinned entries, which makes hit/miss/eviction
// counts a pure function of the access sequence: the engines touch the
// cache (Get, Acquire, Release, Warm) only from their single-threaded
// dispatch/collect passes, and a miss loads inline on the pass that meets
// it, so cache telemetry is byte-reproducible across any Parallelism.
package wset

// Stats is a point-in-time snapshot of cache activity counters.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	Resident  int // entries currently held (pinned + unpinned)
	Peak      int // high-water mark of Resident
}

type entry[K comparable, V any] struct {
	key        K
	val        V
	pins       int
	prev, next *entry[K, V] // LRU list links; nil links while pinned
}

// Cache is a pinned load-through LRU working-set cache. The zero value is
// not usable; construct with New. A Cache is not safe for concurrent use,
// on purpose: the determinism contract (reproducible counters) needs one
// deterministic call sequence, which a lock cannot give — the engines give
// it by confining cache access to their single-threaded passes
// (floatlint's phase-contract rule checks that statically), and a call from
// a worker is a data race the race detector reports instead of a
// nondeterminism a mutex would hide. The hooks must not call back into the
// cache.
type Cache[K comparable, V any] struct {
	// OnMiss, when non-nil, sees every value a miss is about to insert:
	// device state replays its drain log here.
	OnMiss func(K, V)
	// OnEvict, when non-nil, sees every evicted entry — where a device
	// client's drain log is persisted.
	OnEvict func(K, V)

	capacity int
	load     func(K) V
	entries  map[K]*entry[K, V]
	// head is most-recently-used, tail least-recently-used; only unpinned
	// entries are linked.
	head, tail *entry[K, V]
	unpinned   int
	stats      Stats
}

// New constructs a cache bounding the unpinned working set to capacity
// entries (minimum 1). load derives the value of a key; it must be a pure
// function of the key, because an evicted entry's next miss re-derives it
// and must get the value it would have held.
func New[K comparable, V any](capacity int, load func(K) V) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		load:     load,
		entries:  make(map[K]*entry[K, V], capacity+1),
	}
}

// Capacity returns the bound on the unpinned working set.
func (c *Cache[K, V]) Capacity() int { return c.capacity }

// Get returns k's value, marking the entry most-recently-used, and counts
// one hit or one miss. A miss loads the value, inserts it, and evicts
// least-recently-used unpinned entries until the unpinned count is within
// capacity. The returned value
// is guaranteed resident only until the next cache call; callers holding it
// across other traffic must Acquire instead.
func (c *Cache[K, V]) Get(k K) V {
	return c.get(k).val
}

// Acquire is Get plus a pin: the entry is un-evictable until the matching
// Release. Pinning is reference-counted, so a client acquired by
// overlapping owners stays resident until the last one releases it.
func (c *Cache[K, V]) Acquire(k K) V {
	e := c.get(k)
	if e.pins == 0 {
		c.unlink(e)
	}
	e.pins++
	return e.val
}

// Release drops one pin reference; the entry re-enters the LRU list as
// most-recently-used when the count reaches zero (and may then be evicted
// if the cache is over capacity).
func (c *Cache[K, V]) Release(k K) {
	e, ok := c.entries[k]
	if !ok || e.pins == 0 {
		return
	}
	e.pins--
	if e.pins == 0 {
		c.pushFront(e)
		c.evictOver()
	}
}

// get is the one get-on-miss implementation.
func (c *Cache[K, V]) get(k K) *entry[K, V] {
	if e, ok := c.entries[k]; ok {
		c.stats.Hits++
		if e.pins == 0 {
			c.unlink(e)
			c.pushFront(e)
		}
		return e
	}
	c.stats.Misses++
	v := c.load(k)
	if c.OnMiss != nil {
		c.OnMiss(k, v)
	}
	e := &entry[K, V]{key: k, val: v}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.stats.Peak {
		c.stats.Peak = len(c.entries)
	}
	c.evictOver()
	return e
}

// Stats returns a snapshot of the activity counters.
func (c *Cache[K, V]) Stats() Stats {
	s := c.stats
	s.Resident = len(c.entries)
	return s
}

// SetStats overwrites the activity counters (Resident is derived and
// ignored). Checkpoint restore uses this after residency is rebuilt, so
// the rebuild's own hits/misses/evictions never reach telemetry.
func (c *Cache[K, V]) SetStats(s Stats) {
	c.stats = Stats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Peak: s.Peak}
}

// UnpinnedKeys returns the unpinned resident keys in least-recently-used
// first order — the exact order that, replayed through Warm on an empty
// cache, reconstructs this LRU list. Pinned entries are excluded; their
// residency is rebuilt by re-acquisition, not replay. Values are a pure
// function of the key (plus what OnMiss replays), so residency plus Stats
// is the cache's whole checkpointable state.
func (c *Cache[K, V]) UnpinnedKeys() []K {
	keys := make([]K, 0, c.unpinned)
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// Warm loads keys in order, re-populating residency after a restore; the
// caller overwrites the counters afterwards (SetStats).
func (c *Cache[K, V]) Warm(keys []K) {
	for _, k := range keys {
		c.Get(k)
	}
}

// Range calls f for every resident entry (pinned and unpinned) in map
// order — f must not call back into the cache.
// Callers needing determinism must collect and sort; the checkpoint
// writers do exactly that with the int-keyed caches.
func (c *Cache[K, V]) Range(f func(k K, v V, pinned bool)) {
	for k, e := range c.entries {
		f(k, e.val, e.pins > 0)
	}
}

func (c *Cache[K, V]) evictOver() {
	for c.unpinned > c.capacity && c.tail != nil {
		victim := c.tail
		c.unlink(victim)
		delete(c.entries, victim.key)
		c.stats.Evictions++
		if c.OnEvict != nil {
			c.OnEvict(victim.key, victim.val)
		}
	}
}

func (c *Cache[K, V]) pushFront(e *entry[K, V]) {
	e.prev = nil
	e.next = c.head
	if c.head != nil {
		c.head.prev = e
	}
	c.head = e
	if c.tail == nil {
		c.tail = e
	}
	c.unpinned++
}

func (c *Cache[K, V]) unlink(e *entry[K, V]) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		c.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		c.tail = e.prev
	}
	e.prev, e.next = nil, nil
	c.unpinned--
}
