package fl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/opt"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// TestIsTooStaleBoundary pins FedBuff's admission rule at the boundary:
// staleness of exactly StalenessCap is the last admissible value; one past
// it is discarded, and a missing base-version snapshot always discards.
func TestIsTooStaleBoundary(t *testing.T) {
	const cap = 3
	cases := []struct {
		staleness   int
		haveVersion bool
		want        bool
	}{
		{0, true, false},
		{cap - 1, true, false},
		{cap, true, false},    // inclusive boundary: exactly cap is usable
		{cap + 1, true, true}, // one past the cap is not
		{cap + 10, true, true},
		{0, false, true}, // snapshot evicted => unusable regardless
		{cap, false, true},
	}
	for _, c := range cases {
		if got := isTooStale(c.staleness, cap, c.haveVersion); got != c.want {
			t.Errorf("isTooStale(%d, %d, %v) = %v, want %v",
				c.staleness, cap, c.haveVersion, got, c.want)
		}
	}
}

// TestEvictStaleVersionWindow: after advancing to version v, the retained
// snapshot set is exactly {v-cap .. v} — enough that any update with
// admissible staleness still finds its base parameters, and nothing more.
func TestEvictStaleVersionWindow(t *testing.T) {
	const cap = 2
	versions := map[int]tensor.Vector{0: tensor.NewVector(1)}
	for v := 1; v <= 10; v++ {
		versions[v] = tensor.NewVector(1)
		evictStaleVersion(versions, v, cap)

		lo := v - cap
		if lo < 0 {
			lo = 0
		}
		if len(versions) != v-lo+1 {
			t.Fatalf("at version %d: %d snapshots retained, want %d", v, len(versions), v-lo+1)
		}
		for k := lo; k <= v; k++ {
			if _, ok := versions[k]; !ok {
				t.Fatalf("at version %d: snapshot %d missing from window", v, k)
			}
		}
	}
}

// countingController tallies Feedback deliveries by outcome so the test
// can check that discarded-as-stale updates still reach the Controller —
// the adaptation loop must learn from wasted work, not only from updates
// that made it into an aggregate.
type countingController struct {
	completedFeedback int
	dropFeedback      int
}

func (c *countingController) Name() string { return "counting" }

func (c *countingController) Decide(int, *device.Client, device.Resources, float64) opt.Technique {
	return opt.TechNone
}

func (c *countingController) Feedback(_ int, _ *device.Client, _ opt.Technique,
	out device.Outcome, _ float64) {
	if out.Completed {
		c.completedFeedback++
	} else {
		c.dropFeedback++
	}
}

// TestAsyncDiscardedUpdatesStillFeedback: under a tight staleness cap some
// completed updates are discarded before aggregation — but the Controller
// must still receive Feedback for every one of them. Only BufferK×Rounds
// completed updates can have been aggregated, so any completed-feedback
// count above that floor is attributable to discarded updates.
func TestAsyncDiscardedUpdatesStillFeedback(t *testing.T) {
	fed, pop := testSetup(t, 30, trace.ScenarioNone)
	cfg := smallConfig()
	cfg.Rounds = 8
	cfg.Concurrency = 25
	cfg.BufferK = 3
	cfg.StalenessCap = 1
	ctrl := &countingController{}
	res, err := RunAsync(fed, pop, ctrl, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Ledger.Discarded == 0 {
		t.Skip("no update exceeded the staleness cap at this seed")
	}
	aggregated := cfg.BufferK * cfg.Rounds
	// Discards at the final barrier belong to a batch that never fills, so
	// only those popped before the last aggregation are guaranteed to have
	// been delivered; the seed above produces plenty.
	if ctrl.completedFeedback <= aggregated {
		t.Fatalf("completed feedback %d not above the aggregated floor %d despite %d discards",
			ctrl.completedFeedback, aggregated, res.Ledger.Discarded)
	}
}

// TestAsyncOutcomesPinned pins FedBuff's booking of every client-round
// absolutely, eager and lazy, on a run where all of its outcomes occur:
// completions, deadline and availability drops, stale discards (a cap of
// one version) and overrun discards at the end. The matrix proves a build
// agrees with itself; these digests fail when the order or content of the
// log, the trace, the exposition or the ledger moves.
func TestAsyncOutcomesPinned(t *testing.T) {
	names := []string{"log", "trace", "exposition", "ledger"}
	pins := map[string][]string{
		"async/eager": {
			"3c6cc3c6659d340e314f149b798d7ca292d38aff4fca5636d2f12c9e61c845f3",
			"19104bb01854815d9e7bc65c518cd28e14927836da233c6bbb2eb1bb7c291f24",
			"ab87c5d8cbb3413ca1e81ebde6ca7bd273865f4b2e2d272f51696ccf18c675d6",
			"fe962a40441f1cd302788fe8dd11e65579dc74c165d588adc843ace30d627ddf",
		},
		"async/lazy": {
			"173927dfa07d147325961281d934be1db15eddfdf5282580091d458087813f1c",
			"c037a1d737144d67c163988f2e16408d076fa2de035744714806ab5abc4595e2",
			"8a999f74eb8fabc460c4da5b0a65e9293fbe139249acb46294a70275d88c6d75",
			"4f4e17a64d8a3561ea5518d30ccf0235a727f909259c9d3905cd5a31d26c637e",
		},
	}
	for _, rw := range []row{{"async", false}, {"async", true}} {
		t.Run(rw.name(), func(t *testing.T) {
			rr := rw.exec(t, runOpts{tweak: func(c *Config) {
				c.StalenessCap, c.Concurrency, c.DeadlineSec = 1, 16, 300
			}})
			a := rr.artifact(t)
			checkSinks(t, rr)
			for _, note := range []string{`"note":"stale"`, `"note":"overrun"`, `"kind":"drop"`} {
				if !bytes.Contains(a["trace"], []byte(note)) {
					t.Errorf("trace has no %s span: the pins would not cover that outcome", note)
				}
			}
			for i, name := range names {
				want := pins[rw.name()][i]
				sum := sha256.Sum256(a[name])
				if got := hex.EncodeToString(sum[:]); got != want {
					t.Errorf("%s (%d bytes) digest %s, want %s", name, len(a[name]), got, want)
				}
			}
		})
	}
}
