package wset

import "testing"

func TestLRUEviction(t *testing.T) {
	var evicted []int
	c := New[int, string](2, func(k int, _ string) { evicted = append(evicted, k) })
	c.Add(1, "a")
	c.Add(2, "b")
	c.Add(3, "c") // evicts 1 (LRU)
	if len(evicted) != 1 || evicted[0] != 1 {
		t.Fatalf("evicted %v, want [1]", evicted)
	}
	if _, ok := c.Get(1); ok {
		t.Fatal("evicted entry still resident")
	}
	// Touch 2 so 3 becomes LRU.
	if _, ok := c.Get(2); !ok {
		t.Fatal("entry 2 missing")
	}
	c.Add(4, "d") // evicts 3
	if len(evicted) != 2 || evicted[1] != 3 {
		t.Fatalf("evicted %v, want [1 3]", evicted)
	}
}

func TestPinBlocksEviction(t *testing.T) {
	var evicted []int
	c := New[int, int](1, func(k, _ int) { evicted = append(evicted, k) })
	c.Add(1, 10)
	if !c.Pin(1) {
		t.Fatal("pin of resident entry failed")
	}
	c.Add(2, 20)
	c.Add(3, 30) // evicts 2, not pinned 1
	if _, ok := c.Get(1); !ok {
		t.Fatal("pinned entry was evicted")
	}
	if len(evicted) != 1 || evicted[0] != 2 {
		t.Fatalf("evicted %v, want [2]", evicted)
	}
	// Unpin re-enters the LRU as MRU; 3 is now the victim.
	c.Unpin(1)
	if _, ok := c.Get(1); !ok {
		t.Fatal("unpinned entry should survive as MRU")
	}
	if _, ok := c.Get(3); ok {
		t.Fatal("entry 3 should have been evicted on unpin overflow")
	}
}

func TestPinRefcount(t *testing.T) {
	c := New[int, int](1, nil)
	c.Add(1, 1)
	c.Pin(1)
	c.Pin(1)
	c.Unpin(1)
	c.Add(2, 2)
	c.Add(3, 3)
	if _, ok := c.Get(1); !ok {
		t.Fatal("entry with remaining pin was evicted")
	}
	c.Unpin(1)
	if c.Len() > 2 {
		t.Fatalf("resident %d after final unpin, want ≤ 2", c.Len())
	}
}

func TestStatsDeterministic(t *testing.T) {
	run := func() Stats {
		c := New[int, int](2, nil)
		for i := 0; i < 10; i++ {
			k := i % 4
			if _, ok := c.Get(k); !ok {
				c.Add(k, k)
			}
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
	c := New[int, int](4, nil)
	pinned := 0
	for i := 0; i < 100; i++ {
		c.Add(i, i)
		if i%10 == 0 {
			c.Pin(i)
			pinned++
		}
		if got, bound := c.Len(), 4+pinned; got > bound {
			t.Fatalf("resident %d exceeds capacity+pinned = %d", got, bound)
		}
	}
}

// TestUnpinnedKeysReplay pins the checkpoint contract: feeding
// UnpinnedKeys back through Add on an empty cache reconstructs the same
// LRU list, byte for byte, under further identical traffic.
func TestUnpinnedKeysReplay(t *testing.T) {
	build := func() *Cache[int, string] {
		c := New[int, string](3, nil)
		for _, k := range []int{1, 2, 3} {
			c.Add(k, "v")
		}
		c.Get(1) // order now: 2 (LRU), 3, 1 (MRU)
		return c
	}
	c := build()
	keys := c.UnpinnedKeys()
	want := []int{2, 3, 1}
	if len(keys) != len(want) {
		t.Fatalf("UnpinnedKeys = %v, want %v", keys, want)
	}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("UnpinnedKeys = %v, want %v", keys, want)
		}
	}

	replay := New[int, string](3, nil)
	for _, k := range keys {
		replay.Add(k, "v")
	}
	// Identical traffic must now evict identically on both caches.
	c.Add(9, "v")
	replay.Add(9, "v")
	a, b := c.UnpinnedKeys(), replay.UnpinnedKeys()
	if len(a) != len(b) {
		t.Fatalf("diverged: %v vs %v", a, b)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("diverged after replay: %v vs %v", a, b)
		}
	}
}

// TestSetStatsOverwrites proves rebuild noise is erased and Resident stays
// derived from actual residency.
func TestSetStatsOverwrites(t *testing.T) {
	c := New[int, int](2, nil)
	c.Add(1, 1)
	c.Get(1)
	c.Get(42) // miss noise
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
	c := New[int, int](2, nil)
	c.Add(1, 10)
	c.Add(2, 20)
	c.Pin(2)
	seen := map[int]bool{}
	c.Range(func(k, v int, pinned bool) {
		if seen[k] {
			t.Fatalf("key %d visited twice", k)
		}
		seen[k] = true
		if pinned != (k == 2) {
			t.Fatalf("key %d pinned=%v", k, pinned)
		}
	})
	if len(seen) != 2 {
		t.Fatalf("Range visited %d entries, want 2", len(seen))
	}
}

// TestContainsLeavesNoTrace: the peek answers residency — pinned entries
// included — without counting a lookup or refreshing recency, so planning
// with it cannot change what a later access sequence evicts or counts.
func TestContainsLeavesNoTrace(t *testing.T) {
	c := New[int, int](2, nil)
	c.Add(1, 1)
	c.Add(2, 2)
	before := c.Stats()
	if !c.Contains(1) || !c.Contains(2) || c.Contains(3) {
		t.Fatal("Contains disagrees with residency")
	}
	if c.Stats() != before {
		t.Fatalf("Contains moved the counters: %+v → %+v", before, c.Stats())
	}
	c.Add(3, 3) // 1 is still least recently used despite the peek
	if c.Contains(1) || !c.Contains(2) {
		t.Fatal("Contains refreshed recency: the wrong entry was evicted")
	}
	c.Pin(2)
	if !c.Contains(2) {
		t.Fatal("a pinned entry is resident")
	}
}
