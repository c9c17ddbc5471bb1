package fl

import (
	"sync/atomic"
	"testing"
)

// TestParallelExecutionRaceStress exists to give `go test -race` real
// concurrency to inspect: every engine on an eager and a lazy population,
// with more workers than clients per round, a learning controller, and
// stochastic update transforms.
func TestParallelExecutionRaceStress(t *testing.T) {
	for _, rw := range []row{{"sync-random", false}, {"sync-oort", true}, {"async", false}, {"async", true}} {
		rw.exec(t, runOpts{par: 16, tweak: func(cfg *Config) {
			cfg.ClientsPerRound, cfg.Concurrency, cfg.BufferK = 12, 20, 8
		}})
	}
}

func TestForEachSlot(t *testing.T) {
	for _, tc := range []struct{ n, par int }{
		{0, 4}, {1, 1}, {1, 8}, {5, 1}, {7, 3}, {16, 32}, {100, 8},
	} {
		visits := make([]int32, tc.n)
		maxWorkers := tc.par
		if tc.n < maxWorkers {
			maxWorkers = tc.n
		}
		var badWorker int32
		forEachSlot(tc.n, tc.par, func(worker, slot int) {
			if worker < 0 || worker >= maxWorkers {
				atomic.StoreInt32(&badWorker, int32(worker)+1)
			}
			atomic.AddInt32(&visits[slot], 1)
		})
		if badWorker != 0 {
			t.Fatalf("n=%d par=%d: worker index %d out of range", tc.n, tc.par, badWorker-1)
		}
		for i, v := range visits {
			if v != 1 {
				t.Fatalf("n=%d par=%d: slot %d visited %d times", tc.n, tc.par, i, v)
			}
		}
	}
}

func TestHasDuplicateIDs(t *testing.T) {
	if hasDuplicateIDs([]int{1, 2, 3}) {
		t.Fatal("distinct IDs flagged as duplicates")
	}
	if !hasDuplicateIDs([]int{1, 2, 1}) {
		t.Fatal("duplicate IDs not detected")
	}
	if hasDuplicateIDs(nil) {
		t.Fatal("empty selection flagged as duplicates")
	}
}

func TestConfigParallelismDefault(t *testing.T) {
	cfg := Config{Rounds: 1, ClientsPerRound: 1, Arch: "mlp-small"}.withDefaults()
	if cfg.Parallelism < 1 {
		t.Fatalf("default Parallelism %d, want >= 1", cfg.Parallelism)
	}
	cfg = Config{Parallelism: 3}.withDefaults()
	if cfg.Parallelism != 3 {
		t.Fatalf("explicit Parallelism overridden: %d", cfg.Parallelism)
	}
}
