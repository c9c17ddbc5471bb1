// Fixture: the RNG-stream escape shapes rng-escape must flag — a package-
// level stream (shared, unownable; its constructors pass no-global-rand),
// capture by go closures and goroutine arguments (schedule-dependent draw
// order), and a stream crossing the forEachSlot fan-out boundary: as a free
// variable, as a field of a captured struct, or through a method value.
package fixture

import (
	"floatfl/internal/rngstate"
	"math/rand"
	"sync"
)

var sharedRNG = rand.New(rngstate.New(1)) // want rng-escape

func spawnCapture(rng *rand.Rand, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		_ = rng.Int63() // want rng-escape (captured by a go closure)
	}()
	wg.Wait()
}

func spawnArg(rng *rand.Rand, wg *sync.WaitGroup) {
	wg.Add(1)
	go worker(rng, wg) // want rng-escape (stream passed to a goroutine)
	wg.Wait()
}

func worker(rng *rand.Rand, wg *sync.WaitGroup) {
	defer wg.Done()
	_ = rng.Uint64()
}

func forEachSlot(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

func fanOut(rng *rand.Rand) {
	forEachSlot(4, func(i int) {
		_ = rng.Intn(i + 1) // want rng-escape (crosses the fan-out boundary)
	})
}

type runState struct{ rng *rand.Rand }

func (s *runState) fanOutField() {
	forEachSlot(4, func(i int) {
		_ = s.rng.Intn(i + 1) // want rng-escape (field of a captured struct)
	})
}

func (s *runState) fanOutMethodValue() { forEachSlot(4, s.job) }

func (s *runState) job(i int) {
	_ = s.rng.Intn(i + 1) // want rng-escape (receiver of a method value)
}
