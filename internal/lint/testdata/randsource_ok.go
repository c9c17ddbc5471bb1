// Fixture: the one package whose non-test code may call math/rand's
// NewSource — rngstate, which recovers its generator's constants from
// math/rand's own source. Must produce zero findings.
//
//lint:importpath fixture/internal/rngstate
package fixture

import "math/rand"

func firstDraw() uint64 {
	return rand.NewSource(1).(rand.Source64).Uint64()
}
