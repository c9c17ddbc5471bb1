// Package wset implements the bounded working-set cache behind the lazy
// population providers: a pinned LRU keyed by client ID. The cache holds at
// most Capacity *unpinned* entries — pinned entries (clients currently
// owned by an in-flight round) are never evicted and do not count against
// the bound, so total residency is always ≤ capacity + pinned. Eviction
// order is strict LRU over unpinned entries, which makes hit/miss/eviction
// counts a pure function of the access sequence: the engines only *mutate*
// the cache (Get, Add, Pin, Unpin) from their single-threaded
// dispatch/collect passes, so cache telemetry is byte-reproducible across
// any Parallelism. What a miss inserts may have been computed elsewhere —
// the providers derive values ahead on worker goroutines, using Contains
// to decide which — because the cache never sees where a value came from.
package wset

import "sync"

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

// Cache is a pinned LRU working-set cache. The zero value is not usable;
// construct with New. All methods are safe for concurrent use, but the
// determinism contract (reproducible counters) additionally requires a
// deterministic call sequence — the engines guarantee that by confining
// cache mutation to single-threaded passes.
type Cache[K comparable, V any] struct {
	mu       sync.Mutex
	capacity int
	entries  map[K]*entry[K, V]
	// head is most-recently-used, tail least-recently-used; only unpinned
	// entries are linked.
	head, tail *entry[K, V]
	unpinned   int
	onEvict    func(K, V)
	stats      Stats
}

// New constructs a cache bounding the unpinned working set to capacity
// entries (minimum 1). onEvict, when non-nil, observes each evicted
// key/value — the device provider uses it to persist drain logs.
func New[K comparable, V any](capacity int, onEvict func(K, V)) *Cache[K, V] {
	if capacity < 1 {
		capacity = 1
	}
	return &Cache[K, V]{
		capacity: capacity,
		entries:  make(map[K]*entry[K, V], capacity+1),
		onEvict:  onEvict,
	}
}

// Get returns the cached value, marking the entry most-recently-used.
// Counts one hit or one miss.
func (c *Cache[K, V]) Get(k K) (V, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		c.stats.Misses++
		var zero V
		return zero, false
	}
	c.stats.Hits++
	if e.pins == 0 {
		c.unlink(e)
		c.pushFront(e)
	}
	return e.val, true
}

// Contains reports whether k is resident without counting a hit or a miss
// and without touching recency — the peek derive-ahead plans with, which
// must leave no trace in the access sequence.
func (c *Cache[K, V]) Contains(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.entries[k]
	return ok
}

// Add inserts (or replaces) a value as most-recently-used, then evicts
// least-recently-used unpinned entries until the unpinned count is within
// capacity.
func (c *Cache[K, V]) Add(k K, v V) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.entries[k]; ok {
		e.val = v
		if e.pins == 0 {
			c.unlink(e)
			c.pushFront(e)
		}
		return
	}
	e := &entry[K, V]{key: k, val: v}
	c.entries[k] = e
	c.pushFront(e)
	if len(c.entries) > c.stats.Peak {
		c.stats.Peak = len(c.entries)
	}
	c.evictOver()
}

// Pin marks the entry un-evictable until a matching Unpin. Pinning is
// reference-counted: a client acquired by overlapping owners stays resident
// until the last one releases it. Pin of a missing key reports false.
func (c *Cache[K, V]) Pin(k K) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.entries[k]
	if !ok {
		return false
	}
	if e.pins == 0 {
		c.unlink(e)
	}
	e.pins++
	return true
}

// Unpin drops one pin reference; the entry re-enters the LRU list as
// most-recently-used when the count reaches zero (and may then be evicted
// if the cache is over capacity).
func (c *Cache[K, V]) Unpin(k K) {
	c.mu.Lock()
	defer c.mu.Unlock()
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

// Len returns the number of resident entries (pinned + unpinned).
func (c *Cache[K, V]) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// Stats returns a snapshot of the activity counters.
func (c *Cache[K, V]) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.stats
	s.Resident = len(c.entries)
	return s
}

// SetStats overwrites the activity counters (Resident is derived and
// ignored). Checkpoint restore uses this after residency is rebuilt, so
// the rebuild's own hits/misses/evictions never reach telemetry.
func (c *Cache[K, V]) SetStats(s Stats) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.stats = Stats{Hits: s.Hits, Misses: s.Misses, Evictions: s.Evictions, Peak: s.Peak}
}

// UnpinnedKeys returns the unpinned resident keys in least-recently-used
// first order — the exact order that, replayed through Add on an empty
// cache, reconstructs this LRU list. Pinned entries are excluded; their
// residency is rebuilt by re-acquisition, not replay.
func (c *Cache[K, V]) UnpinnedKeys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	keys := make([]K, 0, c.unpinned)
	for e := c.tail; e != nil; e = e.prev {
		keys = append(keys, e.key)
	}
	return keys
}

// Range calls f for every resident entry (pinned and unpinned) in map
// order, holding the cache lock — f must not call back into the cache.
// Callers needing determinism must collect and sort; the checkpoint
// writers do exactly that with the int-keyed caches.
func (c *Cache[K, V]) Range(f func(k K, v V, pinned bool)) {
	c.mu.Lock()
	defer c.mu.Unlock()
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
		if c.onEvict != nil {
			c.onEvict(victim.key, victim.val)
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
