// Fixture: non-test code outside internal/rngstate building a source with
// math/rand's NewSource instead of rngstate.New, which yields the same
// stream with an O(1) Seed; no-global-rand must flag every one.
package fixture

import "math/rand"

func seeded(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed)) // want no-global-rand
}

func reseedable(seed int64) rand.Source {
	mk := rand.NewSource // want no-global-rand (a function value)
	return mk(seed)
}
