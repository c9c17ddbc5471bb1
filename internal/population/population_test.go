package population

import (
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"floatfl/internal/checkpoint"
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

// ahead is the engine's derive-ahead step with the test's own workers: plan
// on this goroutine, derive on par of them, stage on this goroutine. par 1
// is the inline path — nothing is planned or staged. It returns the number
// of derivations the batch needed.
func ahead(p *Population, ids []int, par int) int {
	if par <= 1 {
		return 0
	}
	a := p.PlanAhead(ids)
	jobs := make(chan int)
	var wg sync.WaitGroup
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for job := range jobs {
				a.Load(job)
			}
		}()
	}
	for job := 0; job < a.Len(); job++ {
		jobs <- job
	}
	close(jobs)
	wg.Wait()
	p.Stage(a)
	return a.Len()
}

// observed is everything one scripted run hands back or leaves behind.
// Clients are held by pointer, so comparing two runs' observed values after
// both finished compares every returned client's complete final state —
// trace series, RNG positions, drain log — not a projection of it.
type observed struct {
	Probes     []device.Resources
	Clients    []*device.Client
	DevStats   wset.Stats
	Checkpoint string
	Drains     map[int][]trace.DrainEvent
	Derived    int // derive-ahead jobs run (0 on the inline path)
}

// runScript drives a population the way a sync round does — probe a batch,
// acquire some of it, train (drain), release — for several rounds, each
// batch re-probing the clients the previous round drained and, at small
// capacities, evicted.
func runScript(t *testing.T, capacity, par int) observed {
	t.Helper()
	p := newLazy(t, capacity)
	rng := rand.New(rand.NewSource(5))
	var o observed
	var drained []int
	for round := 0; round < 6; round++ {
		// Ten fresh draws after the drained IDs; a draw may repeat one of
		// them, which plans the same ID twice and finds it resident at use.
		batch := append(append([]int(nil), drained...), rng.Perm(p.NumClients())[:10]...)
		o.Derived += ahead(p, batch, par)
		for _, id := range batch {
			o.Probes = append(o.Probes, p.Client(id).ResourcesAt(round))
		}

		selected := batch[len(batch)-4:]
		o.Derived += ahead(p, selected, par)
		for _, id := range selected {
			c := p.AcquireClient(id)
			o.Clients = append(o.Clients, c)
			c.Avail.Available(round)
			c.Avail.RecordUseAmount(0.07)
		}
		for _, id := range selected {
			p.Release(id)
		}
		drained = selected
	}
	_, o.DevStats = p.Stats()
	e := checkpoint.NewEnc(0)
	p.AppendCheckpoint(e)
	o.Checkpoint = string(e.Bytes())
	o.Drains = p.drainState()
	return o
}

// TestDeriveAheadMatchesInline is the derive-ahead contract at the
// population seam: whatever the worker count and however hard the cache
// thrashes, every returned client, the cache counters, the checkpoint
// bytes and the drain store equal the inline (P = 1) run's.
func TestDeriveAheadMatchesInline(t *testing.T) {
	for _, capacity := range []int{1, 6, 4096} {
		want := runScript(t, capacity, 1)
		if want.Derived != 0 {
			t.Fatalf("cap %d: the inline path ran %d derive-ahead jobs", capacity, want.Derived)
		}
		if capacity < 64 && want.DevStats.Evictions == 0 {
			t.Fatalf("cap %d: the script never evicted; it exercises nothing", capacity)
		}
		if len(want.Drains) == 0 {
			t.Fatalf("cap %d: the script drained nobody", capacity)
		}
		for _, par := range []int{2, 8} {
			t.Run(fmt.Sprintf("cap%d/P%d", capacity, par), func(t *testing.T) {
				got := runScript(t, capacity, par)
				if got.Derived == 0 {
					t.Fatal("derive-ahead never ran a job; the comparison proves nothing")
				}
				got.Derived = want.Derived
				if got.DevStats != want.DevStats {
					t.Errorf("cache stats %+v, inline %+v", got.DevStats, want.DevStats)
				}
				if got.Checkpoint != want.Checkpoint {
					t.Errorf("checkpoint bytes differ:\n got %s\nwant %s", got.Checkpoint, want.Checkpoint)
				}
				if !reflect.DeepEqual(got, want) {
					t.Error("probes, returned clients or drain store differ from the inline run")
				}
			})
		}
	}
}

// TestDeriveAheadPeekIsAdvisory pins the two ways a plan and the pass it
// was made for can disagree. Neither may leave a trace.
func TestDeriveAheadPeekIsAdvisory(t *testing.T) {
	// The script, as (batch planned, prefix of it actually walked).
	script := func(p *Population, par int) (jobs []int, clients []*device.Client) {
		walk := func(batch []int, use int) {
			jobs = append(jobs, ahead(p, batch, par))
			for _, id := range batch[:use] {
				clients = append(clients, p.Client(id))
			}
		}
		// Resident at peek, evicted before use: capacity 1 holds client 3
		// when [9, 3] is planned, so only 9 is staged; using 9 evicts 3, and
		// 3's miss finds nothing staged and derives inline.
		walk([]int{3}, 1)
		walk([]int{9, 3}, 2)
		// Staged, never consumed: 20 and 21 are staged but the pass stops
		// after 20. The next Stage drops 21; when 21 is finally used it was
		// planned again, or derives inline.
		walk([]int{20, 21}, 1)
		walk([]int{30}, 1)
		walk([]int{21}, 1)
		return jobs, clients
	}
	inline, staged := newLazy(t, 1), newLazy(t, 1)
	_, want := script(inline, 1)
	jobs, got := script(staged, 4)
	if wantJobs := []int{1, 1, 2, 1, 1}; !reflect.DeepEqual(jobs, wantJobs) {
		t.Fatalf("derive-ahead jobs per batch %v, want %v", jobs, wantJobs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Error("returned clients differ from the inline run")
	}
	_, wantDev := inline.Stats()
	if _, dev := staged.Stats(); dev != wantDev {
		t.Errorf("device cache stats %+v, inline %+v", dev, wantDev)
	}
	if wantDev.Misses != 6 || wantDev.Hits != 0 {
		t.Errorf("inline run: %d misses %d hits, want 6 and 0 (the script's premise)", wantDev.Misses, wantDev.Hits)
	}
}

// TestDeriveAheadEagerHasNoJobs: a dense population has nothing to derive.
func TestDeriveAheadEagerHasNoJobs(t *testing.T) {
	fed, clients := newLazy(t, 8).Materialize()
	p, err := WrapEager(fed, clients)
	if err != nil {
		t.Fatal(err)
	}
	a := p.PlanAhead([]int{0, 1, 2})
	if a.Len() != 0 {
		t.Fatalf("eager plan has %d jobs", a.Len())
	}
	p.Stage(a)
	if p.Client(1) != clients[1] {
		t.Fatal("eager client is not the dense one")
	}
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
