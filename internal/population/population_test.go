package population

import (
	"math"
	"reflect"
	"slices"
	"sync"
	"testing"

	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

func newLazy(t *testing.T, capacity int) *Population {
	t.Helper()
	p, err := NewLazy(Config{
		Dataset: "femnist", Clients: 64, Alpha: 0.1, Seed: 17,
		Scenario: trace.ScenarioDynamic, CacheClients: capacity,
	})
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// TestEvictionReplaysDrains is the heart of the lazy device contract: a
// client that trained (drained battery), was evicted, and is re-derived
// must be bit-identical to one that stayed resident the whole time — and so
// must the copy of it Materialize hands out.
func TestEvictionReplaysDrains(t *testing.T) {
	// Reference: a big cache where client 5 is never evicted. Thrashing:
	// capacity 1, so touching any other client evicts 5.
	ref, tiny := newLazy(t, 64), newLazy(t, 1)
	drain := func(p *Population, step int) {
		c := p.Client(5)
		c.Avail.Available(step)
		c.Avail.RecordUseAmount(0.12)
	}
	for step := 0; step < 6; step++ {
		drain(ref, step)
		drain(tiny, step)
		tiny.Client(17 + step)
	}
	if _, dev := tiny.Stats(); dev.Evictions < 6 {
		t.Fatalf("tiny cache evicted %d times; the test exercises nothing", dev.Evictions)
	}
	_, dense := tiny.Materialize()
	want := ref.Client(5)
	for _, got := range []*device.Client{tiny.Client(5), dense[5]} {
		if got == want || got.Compute != want.Compute || got.NetKind != want.NetKind {
			t.Fatal("client 5: not a re-derivation of the same client")
		}
		for s := 0; s <= 30; s++ {
			if a, b := got.ResourcesAt(s), want.ResourcesAt(s); a != b {
				t.Fatalf("client 5 step %d: resources %+v after eviction, %+v resident", s, a, b)
			}
		}
	}
}

// TestShardIntoMatchesDerive is the per-job derivation contract: for every
// profile, a shard derived into a dirty buffer — after a larger shard, then
// a smaller one, then a larger one again — equals DeriveClient's bit for
// bit, ShardSize is its training-set size without deriving it, and none of
// it touches a cache.
func TestShardIntoMatchesDerive(t *testing.T) {
	for _, name := range data.ProfileNames() {
		t.Run(name, func(t *testing.T) {
			cfg := data.GenerateConfig{Clients: 64, Alpha: 0.1, Seed: 17}
			p, err := NewLazy(Config{Dataset: name, Clients: cfg.Clients, Alpha: cfg.Alpha, Seed: cfg.Seed})
			if err != nil {
				t.Fatal(err)
			}
			prof, _ := data.LookupProfile(name)
			centers := data.DeriveCenters(prof, cfg.Seed)
			derive := func(id int) data.ClientShard { return data.DeriveClient(prof, cfg, centers, id) }
			// Order the IDs by shard size, then walk big, small, big, …
			ids := make([]int, cfg.Clients)
			for i := range ids {
				ids[i] = i
			}
			var buf data.ShardBuf
			slices.SortStableFunc(ids, func(a, b int) int { return p.ShardSize(a, &buf) - p.ShardSize(b, &buf) })
			for i := 0; i < len(ids)/2; i++ {
				for _, id := range []int{ids[len(ids)-1-i], ids[i]} {
					got, want := p.ShardInto(id, &buf), derive(id)
					if !sameBits(got, want) {
						t.Fatalf("client %d: ShardInto into a dirty buffer differs from DeriveClient", id)
					}
					if n := p.ShardSize(id, &buf); n != len(want.Train) {
						t.Fatalf("client %d: ShardSize %d, derived shard has %d training samples", id, n, len(want.Train))
					}
				}
			}
			if got, want := p.AcquireShard(5), derive(5); !sameBits(got, want) {
				t.Fatal("AcquireShard differs from DeriveClient")
			}
			if shard, dev := p.Stats(); shard != (wset.Stats{}) || dev != (wset.Stats{}) {
				t.Fatalf("shard derivation moved the cache stats: shard %+v dev %+v", shard, dev)
			}
		})
	}
}

// TestShardIntoIsPureUnderRace: fan-out jobs derive shards on the workers
// while the dispatch thread drives the device cache. Eight goroutines, each
// with its own buffer, derive overlapping IDs beside an owner goroutine
// that acquires, probes and releases clients; run under -race (CI does),
// and every derived shard must equal the sequential derivation.
func TestShardIntoIsPureUnderRace(t *testing.T) {
	p := newLazy(t, 3)
	want := make([]data.ClientShard, 16)
	for id := range want {
		want[id] = p.ShardInto(id, nil)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf data.ShardBuf
			for i := 0; i < 40; i++ {
				id := (g*5 + i) % len(want)
				if !sameBits(p.ShardInto(id, &buf), want[id]) || p.ShardSize(id, &buf) != len(want[id].Train) {
					t.Errorf("goroutine %d: client %d derived differently under contention", g, id)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		id := i % len(want)
		p.AcquireClient(id).ResourcesAt(i)
		p.Client((id + 5) % len(want))
		p.Release(id)
	}
	wg.Wait()
}

// TestEagerShardsAreResident: an eager population hands out its own shard
// and its size by index, and leaves the buffer alone.
func TestEagerShardsAreResident(t *testing.T) {
	fed, clients := newLazy(t, 8).Materialize()
	p, err := WrapEager(fed, clients)
	if err != nil {
		t.Fatal(err)
	}
	var buf data.ShardBuf
	if got := p.ShardInto(3, &buf); &got.Train[0] != &fed.Train[3][0] || &got.LocalTest[0] != &fed.LocalTest[3][0] {
		t.Fatal("eager ShardInto is not the resident shard")
	}
	if n := p.ShardSize(3, &buf); n != len(fed.Train[3]) {
		t.Fatalf("eager ShardSize %d, shard has %d", n, len(fed.Train[3]))
	}
	if !reflect.DeepEqual(buf, data.ShardBuf{}) {
		t.Fatal("eager ShardInto or ShardSize wrote the buffer")
	}
}

// sameBits reports whether two shards hold the same labels and the same
// feature bits, sample for sample.
func sameBits(a, b data.ClientShard) bool {
	fp := func(s data.ClientShard) []uint64 {
		out := []uint64{uint64(len(s.Train)), uint64(len(s.LocalTest))}
		for _, smp := range append(slices.Clip(s.Train), s.LocalTest...) {
			out = append(out, uint64(smp.Label), uint64(len(smp.X)))
			for _, x := range smp.X {
				out = append(out, math.Float64bits(x))
			}
		}
		return out
	}
	return slices.Equal(fp(a), fp(b))
}
