package wset_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"math"
	"reflect"
	"sync"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/nn"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// The working-set discipline, stated once and run over two real loaders of
// different value shapes: the device deriver (values are pointers to
// mutable clients — the population's working set) and the shard deriver
// (values are slices into one slab). same reports identity — the very
// value, not a re-derivation of it — and print a fingerprint of the whole
// value, which for a device client means reading its traces.

func shardLoader(t *testing.T) func(int) data.ClientShard {
	t.Helper()
	p, err := data.NewProvider("femnist", data.GenerateConfig{Clients: 128, Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	return func(id int) data.ClientShard { return p.DeriveInto(id, nil) }
}

func sameShard(a, b data.ClientShard) bool { return &a.Train[0] == &b.Train[0] }

func printShard(s data.ClientShard) string {
	h := fnv.New64a()
	put := func(u uint64) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], u)
		h.Write(buf[:])
	}
	put(uint64(len(s.Train)))
	for _, part := range [][]nn.Sample{s.Train, s.LocalTest} {
		for _, smp := range part {
			put(uint64(smp.Label))
			for _, x := range smp.X {
				put(math.Float64bits(x))
			}
		}
	}
	return fmt.Sprintf("%x", h.Sum64())
}

func deviceLoader(t *testing.T) func(int) *device.Client {
	t.Helper()
	p, err := device.NewProvider(device.PopulationConfig{Clients: 128, Scenario: trace.ScenarioDynamic, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	return p.Derive
}

func sameClient(a, b *device.Client) bool { return a == b }

func printClient(c *device.Client) string {
	out := fmt.Sprint(c.ID, c.NetKind, c.Compute)
	for s := 0; s <= 12; s++ {
		out += fmt.Sprint(c.ResourcesAt(s))
	}
	return out
}

func TestConformance(t *testing.T) {
	t.Run("shard", func(t *testing.T) { conformance(t, shardLoader(t), sameShard, printShard) })
	t.Run("device", func(t *testing.T) { conformance(t, deviceLoader(t), sameClient, printClient) })
}

func conformance[V any](t *testing.T, pure func(int) V, same func(a, b V) bool, print func(V) string) {
	// made records every value the loader hands out, per key, so a case can
	// tell how often a key was loaded and whether Get returned that value.
	type harness struct {
		c      *wset.Cache[int, V]
		made   map[int][]V
		misses []int // keys OnMiss saw, in order
	}
	build := func(capacity int) *harness {
		h := &harness{made: map[int][]V{}}
		h.c = wset.New(capacity, func(k int) V {
			v := pure(k)
			h.made[k] = append(h.made[k], v)
			return v
		})
		h.c.OnMiss = func(k int, _ V) { h.misses = append(h.misses, k) }
		return h
	}
	t.Run("miss_derives_once", func(t *testing.T) {
		h := build(2)
		first, again := h.c.Get(4), h.c.Get(4)
		if len(h.made[4]) != 1 || !same(first, h.made[4][0]) || !same(again, first) {
			t.Fatalf("two Gets of one key loaded it %d times", len(h.made[4]))
		}
		if print(first) != print(pure(4)) {
			t.Fatal("the cached value is not the loader's")
		}
		if !reflect.DeepEqual(h.misses, []int{4}) {
			t.Fatalf("OnMiss saw %v, want [4]", h.misses)
		}
		if st := h.c.Stats(); st.Hits != 1 || st.Misses != 1 || st.Resident != 1 {
			t.Fatalf("stats %+v, want 1 hit, 1 miss, 1 resident", st)
		}
	})

	// A pinned (in-round) entry survives arbitrary churn and stays the same
	// instance, and residency stays within capacity + pinned throughout.
	t.Run("pins_survive_eviction_pressure", func(t *testing.T) {
		h := build(4)
		held := map[int]V{}
		for id := 0; id < 100; id++ {
			if id%10 == 2 {
				held[id] = h.c.Acquire(id)
			} else {
				h.c.Get(id)
			}
			if got, bound := h.c.Stats().Resident, 4+len(held); got > bound {
				t.Fatalf("resident %d exceeds capacity+pinned %d", got, bound)
			}
		}
		for id, v := range held {
			if !same(h.c.Get(id), v) || len(h.made[id]) != 1 {
				t.Fatalf("pinned key %d was evicted and re-derived mid-round", id)
			}
			h.c.Release(id)
		}
		if got := h.c.Stats().Resident; got > 4 {
			t.Fatalf("resident %d after releases, want ≤ capacity", got)
		}
	})

	// The checkpoint contract: UnpinnedKeys replayed through Warm — after
	// the pinned entries were re-acquired — rebuilds the LRU order, and
	// SetStats erases what the rebuild counted.
	t.Run("warm_rebuilds_lru_and_set_stats_erases_it", func(t *testing.T) {
		a := build(3)
		a.c.Acquire(9)
		for _, k := range []int{1, 2, 3, 4, 2, 5, 1} {
			a.c.Get(k)
		}
		b := build(3)
		b.c.Acquire(9)
		b.c.Warm(a.c.UnpinnedKeys())
		if b.c.Stats() == a.c.Stats() {
			t.Fatal("the warm-up left no trace to erase; the case proves nothing")
		}
		b.c.SetStats(a.c.Stats())
		agree := func(when string) {
			t.Helper()
			if ka, kb := a.c.UnpinnedKeys(), b.c.UnpinnedKeys(); !reflect.DeepEqual(ka, kb) {
				t.Fatalf("%s: LRU order %v, rebuilt cache %v", when, ka, kb)
			}
			if sa, sb := a.c.Stats(), b.c.Stats(); sa != sb {
				t.Fatalf("%s: stats %+v, rebuilt cache %+v", when, sa, sb)
			}
		}
		agree("after the rebuild")
		for _, k := range []int{7, 2, 9, 8} {
			a.c.Get(k)
			b.c.Get(k)
			agree(fmt.Sprintf("after Get(%d)", k))
		}
	})

	// Derivation touches no shared state: eight goroutines derive
	// overlapping keys while the owner thread drives every mutating call
	// over the same keys. Run under -race (CI does); the fingerprints catch
	// a deriver that is merely unlucky.
	t.Run("derive_is_pure_under_race", func(t *testing.T) {
		const keys = 16
		want := make([]string, keys)
		for k := range want {
			want[k] = print(pure(k))
		}
		c := wset.New(3, pure)
		var wg sync.WaitGroup
		defer wg.Wait()
		for g := 0; g < 8; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for i := 0; i < 40; i++ {
					if k := (g + i) % keys; print(pure(k)) != want[k] {
						t.Errorf("goroutine %d: key %d derived differently under contention", g, k)
						return
					}
				}
			}(g)
		}
		for i := 0; i < 200; i++ {
			k := i % keys
			c.Get((k + 1) % keys)
			if got := print(c.Acquire(k)); got != want[k] {
				t.Fatalf("key %d: cached value deviates from the pure derivation", k)
			}
			c.Get((k + 5) % keys)
			c.Release(k)
		}
	})
}
