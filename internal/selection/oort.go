package selection

import (
	"math"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
)

// Oort's tuning constants; oortAlpha is the Oort paper's default.
const (
	// oortAlpha is the exponent of the system-speed penalty: a client
	// slower than the preferred duration T scores (T/t)^oortAlpha.
	oortAlpha = 2
	// oortExploreFrac of each round's slots goes to never-tried clients.
	oortExploreFrac = 0.1
	// oortPacerStep is the fraction by which the pacer relaxes or
	// tightens T when too few / nearly all clients beat it.
	oortPacerStep = 0.2
	// oortBlacklistAfter consecutive dropouts remove a client from
	// exploitation; exploration can still revisit it.
	oortBlacklistAfter = 4
)

// Oort implements guided participant selection: utility = statistical
// utility × system penalty, with an exploration slice for unseen clients.
// Because utility rewards fast completions, Oort systematically prefers
// efficient clients — the bias Fig. 2a quantifies.
type Oort struct {
	rng *rngstate.Source

	statUtil map[int]float64 // EMA of loss-based utility
	respSecs map[int]float64 // EMA of response time
	tried    map[int]bool
	failures map[int]int // consecutive dropouts

	// pacer state: the adaptive preferred duration T, and the completion
	// counts of the current pacer window.
	pacerT      float64
	windowOK    int
	windowTotal int
}

// NewOort constructs an Oort selector drawing from seed.
func NewOort(seed int64) *Oort {
	return &Oort{
		rng:      rngstate.New(seed),
		statUtil: make(map[int]float64),
		respSecs: make(map[int]float64),
		tried:    make(map[int]bool),
		failures: make(map[int]int),
	}
}

// Name implements Selector.
func (o *Oort) Name() string { return "oort" }

// Select implements Selector: an exploration slice of never-tried clients
// plus the top exploitation utilities.
func (o *Oort) Select(info RoundInfo, pool []*device.Client, k int) []int {
	if k > len(pool) {
		k = len(pool)
	}
	preferred := o.pace(info)

	// Exploration slice: never-tried clients, randomly ordered.
	nExplore := int(math.Round(oortExploreFrac * float64(k)))
	var untried []int
	for _, c := range pool {
		if !o.tried[c.ID] {
			untried = append(untried, c.ID)
		}
	}
	o.rng.Shuffle(len(untried), func(i, j int) { untried[i], untried[j] = untried[j], untried[i] })
	if nExplore > len(untried) {
		nExplore = len(untried)
	}
	chosen := append([]int(nil), untried[:nExplore]...)
	inChosen := make(map[int]bool, k)
	for _, id := range chosen {
		inChosen[id] = true
	}

	// Exploitation: rank the rest by Oort utility, skipping blacklisted
	// clients unless the pool has nobody else to offer.
	rest := make([]*device.Client, 0, len(pool))
	var blacklisted []*device.Client
	for _, c := range pool {
		if inChosen[c.ID] {
			continue
		}
		if math.IsInf(o.utility(c.ID, preferred), -1) {
			blacklisted = append(blacklisted, c)
			continue
		}
		rest = append(rest, c)
	}
	need := k - len(chosen)
	if len(rest) < need {
		rest = append(rest, blacklisted...)
	}
	ids := topKByScore(rest, func(c *device.Client) float64 {
		return o.utility(c.ID, preferred)
	}, need, o.rng)
	return append(chosen, ids...)
}

// pace returns the round's preferred duration T. T starts at 80% of the
// round deadline (60 s without one) and then adapts like Oort's pacer: if
// fewer than half of the recent participants beat T, relax it; if nearly
// everyone does, tighten it to push for faster rounds. The window resets
// after each adjustment.
func (o *Oort) pace(info RoundInfo) float64 {
	if o.pacerT <= 0 {
		o.pacerT = info.DeadlineSec * 0.8
		if o.pacerT <= 0 {
			o.pacerT = 60
		}
	}
	const window = 20
	if o.windowTotal < window {
		return o.pacerT
	}
	frac := float64(o.windowOK) / float64(o.windowTotal)
	switch {
	case frac < 0.5:
		o.pacerT *= 1 + oortPacerStep
	case frac > 0.9:
		o.pacerT *= 1 - oortPacerStep/2
	}
	o.windowOK, o.windowTotal = 0, 0
	return o.pacerT
}

// utility computes Oort's scoring for a known client. Unknown clients get
// a moderate default so they can still be exploited before exploration
// reaches them.
func (o *Oort) utility(id int, preferredSec float64) float64 {
	// Hard blacklist: exploitation skips chronic droppers entirely.
	if o.failures[id] >= oortBlacklistAfter {
		return math.Inf(-1)
	}
	stat, known := o.statUtil[id]
	if !known {
		stat = 1.0
	}
	u := stat
	if t, ok := o.respSecs[id]; ok && t > preferredSec {
		u *= math.Pow(preferredSec/t, oortAlpha)
	}
	// Repeated dropouts decay utility sharply even before the blacklist.
	if f := o.failures[id]; f > 0 {
		u *= math.Pow(0.5, float64(f))
	}
	return u
}

// Observe implements Selector.
func (o *Oort) Observe(fb Feedback) {
	o.tried[fb.ClientID] = true
	o.windowTotal++
	if fb.Outcome.Completed && (o.pacerT <= 0 || fb.Outcome.Cost.TotalSeconds <= o.pacerT) {
		o.windowOK++
	}
	const ema = 0.5
	if fb.Outcome.Completed {
		o.failures[fb.ClientID] = 0
		if prev, ok := o.respSecs[fb.ClientID]; ok {
			o.respSecs[fb.ClientID] = float64(ema*fb.Outcome.Cost.TotalSeconds) + float64((1-ema)*prev)
		} else {
			o.respSecs[fb.ClientID] = fb.Outcome.Cost.TotalSeconds
		}
		if fb.StatUtility > 0 {
			if prev, ok := o.statUtil[fb.ClientID]; ok {
				o.statUtil[fb.ClientID] = float64(ema*fb.StatUtility) + float64((1-ema)*prev)
			} else {
				o.statUtil[fb.ClientID] = fb.StatUtility
			}
		}
	} else {
		o.failures[fb.ClientID]++
		// A dropout is evidence of slowness: penalize the response EMA.
		if prev, ok := o.respSecs[fb.ClientID]; ok {
			o.respSecs[fb.ClientID] = prev * 1.5
		} else {
			o.respSecs[fb.ClientID] = fb.Outcome.Cost.TotalSeconds * 2
		}
	}
}
