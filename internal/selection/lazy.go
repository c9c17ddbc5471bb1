package selection

import (
	"math"
	"sort"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
)

// PopulationView is the lazy population handle selectors draw from: client
// state is derived on demand, so a selector must probe clients it is
// actually considering rather than scan the whole population. The fl
// engines pass their population here. Client mutates the population's
// cache (recency, insertion, eviction) and derives a client it misses
// inline, so calls are confined to the single-threaded dispatch pass — the
// same contract Select already has.
type PopulationView interface {
	NumClients() int
	Client(id int) *device.Client
}

// LazySelector selects from a PopulationView without materializing the
// population. Selection probes clients for availability itself (the eager
// path's checked-in prefilter would be an O(population) scan), so the
// returned IDs are available at info.Round, distinct, and at most k.
//
// All built-in selectors implement it. Probe-bounded selectors (Oort's
// exploration, REFL's ping sample) see a random sample of the population
// per round instead of all of it — the documented semantic difference of
// lazy mode; Random is distribution-identical to its eager self.
type LazySelector interface {
	Selector
	SelectLazy(info RoundInfo, view PopulationView, k int) []int
}

// PermSampler walks a uniform random permutation of [0, n) lazily: Next
// performs one Fisher-Yates step using a sparse swap map, so drawing m
// elements costs O(m) memory regardless of n. Distinctness is inherited
// from the permutation. It is the sampling primitive behind every lazy
// selector and the async engine's launch sampling (Probe).
type PermSampler struct {
	rng   *rngstate.Source
	n, i  int
	swaps map[int]int
}

// NewPermSampler constructs a sampler over [0, n) drawing from rng.
func NewPermSampler(rng *rngstate.Source, n int) *PermSampler {
	return &PermSampler{rng: rng, n: n, swaps: make(map[int]int)}
}

func (s *PermSampler) at(k int) int {
	if v, ok := s.swaps[k]; ok {
		return v
	}
	return k
}

// Next returns the permutation's next element, false when exhausted.
func (s *PermSampler) Next() (int, bool) {
	if s.i >= s.n {
		return 0, false
	}
	j := s.i + s.rng.Intn(s.n-s.i)
	vi, vj := s.at(s.i), s.at(j)
	s.swaps[s.i], s.swaps[j] = vj, vi
	s.i++
	return vj, true
}

// SelectLazy implements LazySelector: walk a uniform random permutation,
// keeping the first k currently-available clients — exactly the eager
// "random k-subset of checked-in clients" distribution, without the
// O(population) check-in scan.
func (r *Random) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	out := make([]int, 0, k)
	Probe(view, info.Round, NewPermSampler(r.rng, n), n,
		func() int { return k - len(out) }, nil,
		func(id int, available bool) {
			if available {
				out = append(out, id)
			}
		})
	return out
}

// Probe is the one lazy probe loop — the selectors' and the async engine's
// launch sampling. It draws candidates from ps one at a time, at most
// budget in all, while need() (re-read before each draw) is positive; it
// drops the ones skip reports without probing them, and visits the rest in
// draw order with their availability at round.
func Probe(view PopulationView, round int, ps *PermSampler, budget int,
	need func() int, skip func(id int) bool, visit func(id int, available bool)) {

	for ; budget > 0 && need() > 0; budget-- {
		id, ok := ps.Next()
		if !ok {
			return
		}
		if skip == nil || !skip(id) {
			visit(id, view.Client(id).ResourcesAt(round).Available)
		}
	}
}

// ProbeBudget bounds how many clients a probe-sampled walk derives per
// round beyond its target: generous enough that a typical availability
// rate fills k, bounded so a blackout round costs O(k), not O(population).
func ProbeBudget(k, n int) int {
	budget := 8*k + 64
	if budget > n {
		budget = n
	}
	return budget
}

// SelectLazy implements LazySelector for Oort: the exploration slice draws
// from a probe-bounded random sample of never-tried clients, and
// exploitation ranks the *known* set (clients with observed feedback —
// already O(tried), not O(population)) by Oort utility, walking best-first
// and admitting only currently-available clients.
func (o *Oort) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
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
	admit := func(id int, available bool) {
		if available {
			chosen = append(chosen, id)
			inChosen[id] = true
		}
	}
	Probe(view, info.Round, ps, ProbeBudget(nExplore, n),
		func() int { return nExplore - len(chosen) },
		func(id int) bool { return o.tried[id] }, admit)

	// Exploitation over the known set, in sorted-ID order for determinism.
	known := make([]int, 0, len(o.tried))
	for id := range o.tried {
		known = append(known, id)
	}
	sort.Ints(known)
	ranked := make([]scored, 0, len(known))
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
		ranked = append(ranked, s)
	}
	sortByScore(ranked)
	sortByScore(blacklisted)
	// Walk best-first, probing availability; blacklisted clients are the
	// last resort, as in the eager path.
	for _, tier := range [][]scored{ranked, blacklisted} {
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
	Probe(view, info.Round, ps, ProbeBudget(k-len(chosen), n),
		func() int { return k - len(chosen) },
		func(id int) bool { return inChosen[id] }, admit)
	return chosen
}

// SelectLazy implements LazySelector for REFL: the server pings a
// probe-bounded random sample each round (lazy REFL cannot ping a million
// clients), feeds the observations into the per-client availability
// histories, and picks the fastest predicted-available clients from the
// sample.
func (r *REFL) SelectLazy(info RoundInfo, view PopulationView, k int) []int {
	n := view.NumClients()
	if k > n {
		k = n
	}
	budget := ProbeBudget(k, n)
	probed := make([]int, 0, budget)
	avail := make(map[int]bool, budget)
	// The ping sample never stops early: it walks the whole budget.
	Probe(view, info.Round, NewPermSampler(r.rng, n), budget,
		func() int { return 1 }, nil,
		func(id int, a bool) {
			probed = append(probed, id)
			avail[id] = a
			h := append(r.history[id], a)
			if len(h) > reflWindow {
				h = h[len(h)-reflWindow:]
			}
			r.history[id] = h
		})
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
	ss := make([]scored, len(candidates))
	for i, id := range candidates {
		t, ok := r.respSecs[id]
		if !ok {
			t = device.EstimateResponseSeconds(view.Client(id), info.Round, info.Work)
		}
		ss[i] = scored{id: id, score: -t, tie: r.rng.Float64()}
	}
	return topK(ss, k)
}
