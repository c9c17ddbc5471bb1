package selection

import (
	"math"
	"sort"

	"floatfl/internal/device"
)

// The lazy selectors with their probe loops written out by hand: each draws
// one candidate, tests it, probes it, and only then draws the next. They
// are the oracle TestLazySelectorsContract holds the Probe-driven selectors
// to — same selection, same RNG position, same probe sequence, same
// selector state.

func (r *Random) selectLazyOneAtATime(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	ps := NewPermSampler(r.rng, n)
	out := make([]int, 0, k)
	for len(out) < k {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			out = append(out, id)
		}
	}
	return out
}

func (o *Oort) selectLazyOneAtATime(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	preferred := o.pace(info)

	nExplore := int(math.Round(oortExploreFrac * float64(k)))
	if nExplore > k {
		nExplore = k
	}
	chosen := make([]int, 0, k)
	inChosen := make(map[int]bool, k)
	ps := NewPermSampler(o.rng, n)
	for probes := ProbeBudget(nExplore, n); probes > 0 && len(chosen) < nExplore; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if o.tried[id] {
			continue
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			chosen = append(chosen, id)
			inChosen[id] = true
		}
	}

	// Exploitation over the known set, in sorted-ID order for determinism.
	known := make([]int, 0, len(o.tried))
	for id := range o.tried {
		known = append(known, id)
	}
	sort.Ints(known)
	type scored struct {
		id    int
		score float64
		tie   float64
	}
	rank := make([]scored, 0, len(known))
	blacklisted := make([]scored, 0)
	for _, id := range known {
		if inChosen[id] {
			continue
		}
		u := o.utility(id, preferred)
		s := scored{id: id, score: u, tie: o.rng.Float64()}
		if math.IsInf(u, -1) {
			blacklisted = append(blacklisted, s)
			continue
		}
		rank = append(rank, s)
	}
	byScore := func(ss []scored) func(i, j int) bool {
		return func(i, j int) bool {
			if ss[i].score != ss[j].score {
				return ss[i].score > ss[j].score
			}
			return ss[i].tie < ss[j].tie
		}
	}
	sort.Slice(rank, byScore(rank))
	sort.Slice(blacklisted, byScore(blacklisted))
	// Walk best-first, probing availability; blacklisted clients are the
	// last resort, as in the eager path.
	for _, tier := range [][]scored{rank, blacklisted} {
		for _, s := range tier {
			if len(chosen) >= k {
				return chosen
			}
			if view.Client(s.id).ResourcesAt(info.Round).Available {
				chosen = append(chosen, s.id)
				inChosen[s.id] = true
			}
		}
	}
	// Unfilled slots (cold start: nothing known yet) fall back to random
	// exploration of untried clients.
	for probes := ProbeBudget(k-len(chosen), n); probes > 0 && len(chosen) < k; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		if inChosen[id] {
			continue
		}
		if view.Client(id).ResourcesAt(info.Round).Available {
			chosen = append(chosen, id)
			inChosen[id] = true
		}
	}
	return chosen
}

func (r *REFL) selectLazyOneAtATime(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	ps := NewPermSampler(r.rng, n)
	probed := make([]int, 0, ProbeBudget(k, n))
	avail := make(map[int]bool, ProbeBudget(k, n))
	for probes := ProbeBudget(k, n); probes > 0; probes-- {
		id, ok := ps.Next()
		if !ok {
			break
		}
		a := view.Client(id).ResourcesAt(info.Round).Available
		probed = append(probed, id)
		avail[id] = a
		h := append(r.history[id], a)
		if len(h) > reflWindow {
			h = h[len(h)-reflWindow:]
		}
		r.history[id] = h
	}
	candidates := make([]int, 0, len(probed))
	for _, id := range probed {
		// REFL's window prediction, additionally gated on the ping result:
		// a lazy server only dispatches to clients that answered.
		if avail[id] && r.predictAvailable(id) {
			candidates = append(candidates, id)
		}
	}
	if len(candidates) == 0 {
		for _, id := range probed {
			if avail[id] {
				candidates = append(candidates, id)
			}
		}
	}
	type scored struct {
		id    int
		score float64
		tie   float64
	}
	ss := make([]scored, len(candidates))
	for i, id := range candidates {
		t, ok := r.respSecs[id]
		if !ok {
			t = device.EstimateResponseSeconds(view.Client(id), info.Round, info.Work)
		}
		ss[i] = scored{id: id, score: -t, tie: r.rng.Float64()}
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].tie < ss[j].tie
	})
	if k > len(ss) {
		k = len(ss)
	}
	out := make([]int, k)
	for i := 0; i < k; i++ {
		out[i] = ss[i].id
	}
	return out
}
