package wset

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ident is the simplest pure loader: a key is its own value.
func ident(k int) int { return k }

// resident reports whether k is held, without counting a lookup or
// touching recency.
func resident[K comparable, V any](c *Cache[K, V], k K) bool {
	_, ok := c.entries[k]
	return ok
}

func TestLRUEviction(t *testing.T) {
	var evicted []int
	c := New(2, func(k int) string { return fmt.Sprint(k) })
	c.OnEvict = func(k int, _ string) { evicted = append(evicted, k) }
	c.Get(1)
	c.Get(2)
	c.Get(3) // evicts 1 (LRU)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if resident(c, 1) {
		t.Fatal("evicted entry still resident")
	}
	// Touch 2 so 3 becomes LRU.
	if got := c.Get(2); got != "2" || c.Stats().Hits != 1 {
		t.Fatalf("entry 2: got %q with stats %+v, want a hit on \"2\"", got, c.Stats())
	}
	c.Get(4) // evicts 3
	if len(evicted) != 2 || evicted[1] != 3 {
		t.Fatalf("evicted %v, want [1 3]", evicted)
	}
}

func TestPinBlocksEviction(t *testing.T) {
	var evicted []int
	c := New(1, ident)
	c.OnEvict = func(k, _ int) { evicted = append(evicted, k) }
	c.Acquire(1)
	c.Get(2)
	c.Get(3) // evicts 2, not pinned 1
	if !resident(c, 1) {
		t.Fatal("pinned entry was evicted")
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	// Release re-enters the LRU as MRU; 3 is now the victim.
	c.Release(1)
	if !resident(c, 1) {
		t.Fatal("released entry should survive as MRU")
	}
	if resident(c, 3) {
		t.Fatal("entry 3 should have been evicted on release overflow")
	}
}

func TestPinRefcount(t *testing.T) {
	c := New(1, ident)
	c.Acquire(1)
	c.Acquire(1)
	c.Release(1)
	c.Get(2)
	c.Get(3)
	if !resident(c, 1) {
		t.Fatal("entry with remaining pin was evicted")
	}
	c.Release(1)
	if res := c.Stats().Resident; res > 2 {
		t.Fatalf("resident %d after final release, want ≤ 2", res)
	}
	c.Release(1) // unbalanced: a no-op, not a negative count
	c.Release(99)
	if res := c.Stats().Resident; res != 1 {
		t.Fatalf("resident %d after unbalanced releases, want 1", res)
	}
}

func TestStatsDeterministic(t *testing.T) {
	run := func() Stats {
		c := New(2, ident)
		for i := 0; i < 10; i++ {
			c.Get(i % 4)
		}
		return c.Stats()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same access sequence produced different stats: %+v vs %+v", a, b)
	}
	if a.Hits+a.Misses != 10 {
		t.Fatalf("hits+misses = %d, want 10", a.Hits+a.Misses)
	}
	if a.Peak > 3 {
		t.Fatalf("peak resident %d exceeds capacity+1", a.Peak)
	}
}

func TestResidencyBound(t *testing.T) {
	c := New(4, ident)
	pinned := 0
	for i := 0; i < 100; i++ {
		if i%10 == 0 {
			c.Acquire(i)
			pinned++
		} else {
			c.Get(i)
		}
		if got, bound := c.Stats().Resident, 4+pinned; got > bound {
			t.Fatalf("resident %d exceeds capacity+pinned = %d", got, bound)
		}
	}
}

// TestUnpinnedKeysReplay pins the checkpoint contract: feeding
// UnpinnedKeys back through Warm on an empty cache reconstructs the same
// LRU list, byte for byte, under further identical traffic.
func TestUnpinnedKeysReplay(t *testing.T) {
	c := New(3, ident)
	c.Warm([]int{1, 2, 3})
	c.Get(1) // order now: 2 (LRU), 3, 1 (MRU)
	keys := c.UnpinnedKeys()
	if want := []int{2, 3, 1}; !reflect.DeepEqual(keys, want) {
		t.Fatalf("UnpinnedKeys = %v, want %v", keys, want)
	}
	replay := New(3, ident)
	replay.Warm(keys)
	// Identical traffic must now evict identically on both caches.
	c.Get(9)
	replay.Get(9)
	if a, b := c.UnpinnedKeys(), replay.UnpinnedKeys(); !reflect.DeepEqual(a, b) {
		t.Fatalf("diverged after replay: %v vs %v", a, b)
	}
}

// TestSetStatsOverwrites proves rebuild noise is erased and Resident stays
// derived from actual residency.
func TestSetStatsOverwrites(t *testing.T) {
	c := New(2, ident)
	c.Get(1)
	c.Get(1)
	c.SetStats(Stats{Hits: 10, Misses: 20, Evictions: 30, Peak: 40, Resident: 999})
	s := c.Stats()
	if s.Hits != 10 || s.Misses != 20 || s.Evictions != 30 || s.Peak != 40 {
		t.Fatalf("SetStats not applied: %+v", s)
	}
	if s.Resident != 1 {
		t.Fatalf("Resident = %d, want 1 (derived, not restored)", s.Resident)
	}
}

// TestRangeSeesPinnedAndUnpinned covers the capture path: every resident
// entry is visited exactly once with its pin state.
func TestRangeSeesPinnedAndUnpinned(t *testing.T) {
	c := New(2, func(k int) int { return 10 * k })
	c.Get(1)
	c.Acquire(2)
	seen := map[int]bool{}
	c.Range(func(k, v int, pinned bool) {
		if seen[k] {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = true
		if pinned != (k == 2) || v != 10*k {
			t.Fatalf("key %d: value %d pinned=%v", k, v, pinned)
		}
	})
	if len(seen) != 2 {
		t.Fatalf("Range visited %d entries, want 2", len(seen))
	}
}

// refCache is the load-through cache as a specification: the unpinned LRU
// order as a plain slice, pin counts as a map, every operation a linear
// scan. It predicts the counters and the LRU order.
type refCache struct {
	capacity int
	lru      []int // unpinned residents, least recently used first
	pins     map[int]int
	st       Stats
}

func (r *refCache) drop(k int) bool {
	for i, x := range r.lru {
		if x == k {
			r.lru = append(r.lru[:i], r.lru[i+1:]...)
			return true
		}
	}
	return false
}

func (r *refCache) get(k int, pin bool) {
	switch {
	case r.pins[k] > 0:
		r.st.Hits++
	case r.drop(k):
		r.st.Hits++
		r.lru = append(r.lru, k)
	default:
		r.st.Misses++
		r.lru = append(r.lru, k)
		if res := len(r.lru) + len(r.pins); res > r.st.Peak {
			r.st.Peak = res
		}
		r.trim()
	}
	if pin {
		r.drop(k)
		r.pins[k]++
	}
	r.st.Resident = len(r.lru) + len(r.pins)
}

func (r *refCache) release(k int) {
	if r.pins[k] == 0 {
		return
	}
	if r.pins[k]--; r.pins[k] == 0 {
		delete(r.pins, k)
		r.lru = append(r.lru, k)
		r.trim()
	}
	r.st.Resident = len(r.lru) + len(r.pins)
}

func (r *refCache) trim() {
	for len(r.lru) > r.capacity {
		r.lru = r.lru[1:]
		r.st.Evictions++
	}
}

// TestRandomTraceMatchesReference drives the cache and the specification
// with the same seeded random traffic — gets, acquires, releases (balanced
// or not) — and compares counters and LRU order after every operation, and
// that every miss, and nothing else, loaded.
func TestRandomTraceMatchesReference(t *testing.T) {
	for _, capacity := range []int{1, 3, 8} {
		rng := rand.New(rand.NewSource(int64(capacity)))
		loads := 0
		c := New(capacity, func(k int) int {
			loads++
			return 7 * k
		})
		ref := &refCache{capacity: capacity, pins: map[int]int{}}
		for op := 0; op < 4000; op++ {
			k := rng.Intn(16)
			switch what := rng.Intn(9); {
			case what < 4:
				if got := c.Get(k); got != 7*k {
					t.Fatalf("cap %d op %d: Get(%d) = %d", capacity, op, k, got)
				}
				ref.get(k, false)
			case what < 6:
				c.Acquire(k)
				ref.get(k, true)
			default:
				c.Release(k)
				ref.release(k)
			}
			if got := c.Stats(); got != ref.st {
				t.Fatalf("cap %d op %d: stats %+v, reference %+v", capacity, op, got, ref.st)
			}
			if got := c.UnpinnedKeys(); !reflect.DeepEqual(got, append([]int{}, ref.lru...)) {
				t.Fatalf("cap %d op %d: LRU order %v, reference %v", capacity, op, got, ref.lru)
			}
			if int64(loads) != ref.st.Misses {
				t.Fatalf("cap %d op %d: %d loads for %d misses", capacity, op, loads, ref.st.Misses)
			}
		}
		if ref.st.Evictions == 0 || ref.st.Hits == 0 {
			t.Fatalf("cap %d: trace exercised nothing: %+v", capacity, ref.st)
		}
	}
}
