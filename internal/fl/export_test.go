package fl

import (
	"floatfl/internal/checkpoint"
	"floatfl/internal/population"
	"floatfl/internal/selection"
)

// WarmRun builds a run and steps it to its n-th boundary, for the external
// tests that drive it with a controller from internal/core (which imports
// fl, so this package's own tests cannot).
func WarmRun(async bool, p *population.Population, sel selection.Selector, ctrl Controller, cfg Config, n int) (checkpoint.Stateful, error) {
	kind, step := SyncSnapshotKind, (*run).syncRound
	if async {
		kind, step = AsyncSnapshotKind, (*run).asyncStep
	}
	r, err := newRun(kind, p, sel, ctrl, cfg)
	if err != nil {
		return nil, err
	}
	for r.done < n {
		if _, err := step(r); err != nil {
			return nil, err
		}
	}
	return r, nil
}
