package selection

import (
	"math"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
)

// REFL's window predictor: a client is predicted available when at least
// reflAvailThreshold of its last reflWindow availability observations
// were "available" (and its window persists; see predictAvailable).
const (
	reflWindow         = 8
	reflAvailThreshold = 0.6
)

// REFL models the paper's characterization of REFL (EuroSys '23): it
// observes each client's availability at every round, predicts the next
// availability window from that history, and among predicted-available
// clients prefers the fastest ones (lowest observed response time),
// falling back to least-recently-participated for unseen clients.
//
// Its two failure modes — both demonstrated by the paper — are inherent to
// the design: (1) the one-dimensional window prediction collapses when
// availability depends on dynamic resource consumption, and (2) preferring
// fast clients excludes a large share of the population entirely.
type REFL struct {
	rng *rngstate.Source

	// history[id] is a ring of recent availability observations.
	history map[int][]bool
	// respSecs is an EMA of observed response times.
	respSecs map[int]float64
	lastPart map[int]int // round of last participation
}

// NewREFL constructs a REFL selector drawing from seed.
func NewREFL(seed int64) *REFL {
	return &REFL{
		rng:      rngstate.New(seed),
		history:  make(map[int][]bool),
		respSecs: make(map[int]float64),
		lastPart: make(map[int]int),
	}
}

// Name implements Selector.
func (r *REFL) Name() string { return "refl" }

// Select implements Selector: observe availability, predict windows, and
// choose the fastest predicted-available clients.
func (r *REFL) Select(info RoundInfo, pool []*device.Client, k int) []int {
	if k > len(pool) {
		k = len(pool)
	}
	// The server pings clients each round (REFL's availability reports).
	var candidates []*device.Client
	for _, c := range pool {
		avail := c.ResourcesAt(info.Round).Available
		h := append(r.history[c.ID], avail)
		if len(h) > reflWindow {
			h = h[len(h)-reflWindow:]
		}
		r.history[c.ID] = h
		if r.predictAvailable(c.ID) {
			candidates = append(candidates, c)
		}
	}
	if len(candidates) == 0 {
		candidates = pool
	}
	return topKByScore(candidates, func(c *device.Client) float64 {
		// Fast clients first. Unseen clients get a speed prior from the
		// estimated response time so the very first rounds are not random.
		t, ok := r.respSecs[c.ID]
		if !ok {
			t = device.EstimateResponseSeconds(c, info.Round, info.Work)
		}
		return -t
	}, k, r.rng)
}

// predictAvailable is REFL's window predictor. It combines the base-rate
// test (available in at least reflAvailThreshold of recent observations) with
// a window-persistence estimate: from the observed ON→ON transition
// frequency it predicts whether a currently-available client's window
// will persist through the next round. Both estimates share the paper's
// criticized premise — that availability is a one-dimensional window
// whose future can be read off recent history.
func (r *REFL) predictAvailable(id int) bool {
	h := r.history[id]
	if len(h) == 0 {
		return true // optimistic about unseen clients
	}
	n := 0
	for _, a := range h {
		if a {
			n++
		}
	}
	if float64(n)/float64(len(h)) < reflAvailThreshold {
		return false
	}
	// Persistence: estimate P(on_{t+1} | on_t) from adjacent pairs; only
	// trust windows that historically persist.
	onPairs, onPersist := 0, 0
	for i := 1; i < len(h); i++ {
		if h[i-1] {
			onPairs++
			if h[i] {
				onPersist++
			}
		}
	}
	if onPairs == 0 {
		return h[len(h)-1]
	}
	persist := float64(onPersist) / float64(onPairs)
	return h[len(h)-1] && persist >= 0.5
}

// Observe implements Selector.
func (r *REFL) Observe(fb Feedback) {
	r.lastPart[fb.ClientID] = fb.Round
	const ema = 0.5
	secs := fb.Outcome.Cost.TotalSeconds
	if !fb.Outcome.Completed {
		// Treat a dropout as a very slow response.
		secs = math.Max(secs*2, 1)
	}
	if prev, ok := r.respSecs[fb.ClientID]; ok {
		r.respSecs[fb.ClientID] = float64(ema*secs) + float64((1-ema)*prev)
	} else {
		r.respSecs[fb.ClientID] = secs
	}
}
