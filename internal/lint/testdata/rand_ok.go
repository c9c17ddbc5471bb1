// Fixture: the sanctioned randomness patterns — seeded generators built
// through the constructors, methods on *rand.Rand, and one allowlisted
// global draw. Must produce zero findings.
package fixture

import (
	"math/rand"

	"floatfl/internal/rngstate"
)

func seededDraw(seed int64) int {
	r := rand.New(rngstate.New(seed)) // constructors are the sanctioned path
	return r.Intn(10)                 // method on a seeded *rand.Rand
}

func allowedDraw() int {
	//lint:allow no-global-rand fixture demonstrating an annotated exception
	return rand.Intn(10)
}
