// Fixture: the sanctioned RNG-stream patterns — streams derived inside
// the worker from plain integer seeds (only values cross the boundary,
// never streams), single-threaded owner-held streams, and one explicitly
// allowlisted capture. Must produce zero findings.
package fixture

import (
	"math/rand"
	"sync"

	"floatfl/internal/rngstate"
)

func forEachSlotOK(n int, fn func(int)) {
	for i := 0; i < n; i++ {
		fn(i)
	}
}

// fanOutDerived is the blessed engine shape: the closure receives only the
// seed material and constructs its own stream per job.
func fanOutDerived(seed int64) {
	forEachSlotOK(4, func(i int) {
		rng := rand.New(rngstate.New(seed ^ int64(i)))
		_ = rng.Intn(10)
	})
}

// ownerHeld draws from a stream that never leaves the single-threaded
// owner's frame.
func ownerHeld(seed int64) int {
	rng := rand.New(rngstate.New(seed))
	return rng.Intn(100)
}

func sanctionedCapture(rng *rand.Rand, wg *sync.WaitGroup) {
	wg.Add(1)
	go func() {
		defer wg.Done()
		//lint:allow rng-escape fixture: single worker, owner provably quiescent while it runs
		_ = rng.Int63()
	}()
	wg.Wait()
}
