package fl

import (
	"strings"
	"testing"

	"floatfl/internal/device"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// lazyPopConfig is the small-scale lazy population every equivalence test
// uses: large enough to exercise selection and dropouts, small enough to
// materialize for the eager reference, with a cache far smaller than the
// population so eviction/re-derivation is constantly exercised.
func lazyPopConfig(clients int) population.Config {
	return population.Config{
		Dataset:      "femnist",
		Clients:      clients,
		Alpha:        0.1,
		Seed:         29,
		Scenario:     trace.ScenarioDynamic,
		CacheClients: 4,
	}
}

// TestRunSyncPopLazyRequiresLazySelector pins the error path: a lazy
// population cannot run behind a selector that needs the dense pool.
func TestRunSyncPopLazyRequiresLazySelector(t *testing.T) {
	p, err := population.NewLazy(lazyPopConfig(16))
	if err != nil {
		t.Fatal(err)
	}
	_, err = RunSyncPop(p, eagerOnlySelector{}, NoOpController{}, parSyncConfig(1))
	if err == nil || !strings.Contains(err.Error(), "LazySelector") {
		t.Fatalf("want LazySelector error, got %v", err)
	}
}

// eagerOnlySelector implements only the dense Selector interface.
type eagerOnlySelector struct{}

func (eagerOnlySelector) Name() string { return "eager-only" }
func (eagerOnlySelector) Select(selection.RoundInfo, []*device.Client, int) []int {
	return nil
}
func (eagerOnlySelector) Observe(selection.Feedback) {}
