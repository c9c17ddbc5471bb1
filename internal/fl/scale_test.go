package fl

import (
	"os"
	"runtime"
	"strconv"
	"testing"
	"time"

	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
	"floatfl/internal/wset"
)

// popScaleEnv gates the million-client test: it allocates hundreds of MB
// and runs for tens of seconds, so plain `go test ./...` skips it.
//
//	FLOAT_POP_SCALE=1 go test ./internal/fl -run TestMillionClientBoundedMemory -v
//
// FLOAT_POP_CLIENTS / FLOAT_POP_PER_ROUND override the scale (CI runs a
// reduced configuration).
const popScaleEnv = "FLOAT_POP_SCALE"

func envInt(name string, def int) int {
	if v := os.Getenv(name); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			return n
		}
	}
	return def
}

// TestMillionClientBoundedMemory is the tentpole's scale acceptance test:
// a million-client lazy population must start up in O(1), run rounds whose
// resident working set never exceeds cache capacity + the selected set,
// and keep the live heap flat in the population size (an eager
// population at this scale would need tens of GB).
func TestMillionClientBoundedMemory(t *testing.T) {
	if os.Getenv(popScaleEnv) == "" {
		t.Skipf("set %s=1 to run the million-client scale test", popScaleEnv)
	}
	clients := envInt("FLOAT_POP_CLIENTS", 1_000_000)
	perRound := envInt("FLOAT_POP_PER_ROUND", 10_000)
	const cacheClients = 4096
	const rounds = 2

	start := time.Now()
	p, err := population.NewLazy(population.Config{
		Dataset:      "femnist",
		Clients:      clients,
		Alpha:        0.1,
		Seed:         42,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: cacheClients,
	})
	if err != nil {
		t.Fatal(err)
	}
	startupSec := time.Since(start).Seconds()
	t.Logf("startup: %.3fs for %d clients", startupSec, clients)

	cfg := Config{
		Arch:            "mlp-small",
		Rounds:          rounds,
		ClientsPerRound: perRound,
		Epochs:          1,
		BatchSize:       16,
		LR:              0.1,
		EvalEvery:       rounds,
		Seed:            42,
		EvalClients:     256,
	}
	runStart := time.Now()
	res, err := RunSyncPop(p, selection.NewRandom(42), NoOpController{}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	roundSec := time.Since(runStart).Seconds() / rounds
	t.Logf("round: %.3fs avg over %d rounds (%d selected/round)", roundSec, rounds, perRound)

	if res.Ledger.TotalRounds == 0 {
		t.Fatal("no client-rounds executed")
	}
	if !res.Ledger.Sparse() {
		t.Fatal("million-client run must use the sparse ledger")
	}

	// The acceptance bound: resident client state never exceeded the cache
	// capacity plus one round's pinned selection, and no shard was cached.
	ceiling := cacheClients + perRound
	shard, dev := p.Stats()
	if dev.Peak > ceiling {
		t.Errorf("device cache peak residency %d exceeds ceiling %d (cache %d + selected %d)",
			dev.Peak, ceiling, cacheClients, perRound)
	}
	if shard != (wset.Stats{}) {
		t.Errorf("shard stats %+v: shards are derived per job, never cached", shard)
	}

	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	// The population (caches included) and the result (sparse ledger,
	// global model) must be reachable at the measurement, or the figure is
	// that of an empty heap.
	runtime.KeepAlive(p)
	runtime.KeepAlive(res)
	bytesPerClient := float64(ms.HeapAlloc) / float64(clients)
	t.Logf("heap after run: %.1f MB (%.1f bytes per population client; device peak %d)",
		float64(ms.HeapAlloc)/(1<<20), bytesPerClient, dev.Peak)
	// What stays live is the 4096-client device cache, the sparse ledger
	// and the model: 6.1 MB measured at 100k clients and 6.2 MB at 1M,
	// flat in the population size. A resident client's three trace streams
	// hold no RNG register (they stop long before draw 274) and keep only
	// their last two steps, so a cached client costs its fixed-size traces
	// and their RNG streams, about 850 B, however many rounds ran. Shards are
	// derived per training job and die with it; a cache holding 4096 of
	// them resident (~45 KB each, one slab rounded up to whole pages:
	// ~180 MB) would not fit the budget, nor would one trace register per
	// stream (~15 KB per resident client: ~60 MB), nor would an eager
	// population, which holds every client's shard and device state.
	const heapBudget = 16 << 20
	if ms.HeapAlloc > heapBudget {
		t.Errorf("live heap %.1f MB exceeds the %d MB budget — population memory is not bounded",
			float64(ms.HeapAlloc)/(1<<20), heapBudget>>20)
	}
}
