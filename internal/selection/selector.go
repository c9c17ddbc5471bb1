// Package selection implements the client-selection algorithms FLOAT is
// evaluated against: Random (FedAvg's policy), Oort's utility-guided
// selection, and REFL's availability-window prediction. FedBuff's
// over-selection is implemented by the asynchronous engine in internal/fl,
// which keeps a concurrency target filled via the Random selector.
//
// Each algorithm is faithful to the behaviour the paper measures rather
// than to the full original codebase: Oort prefers clients with high
// statistical utility and fast responses (and therefore biases toward
// efficient clients); REFL predicts each client's availability from its
// recent history and assumes the window holds for the whole round — the
// exact assumption the paper shows failing under dynamic resources.
package selection

import (
	"math"
	"sort"

	"floatfl/internal/device"
	"floatfl/internal/rngstate"
)

// RoundInfo carries the context a selector may use when choosing clients.
type RoundInfo struct {
	Round       int
	Work        device.WorkSpec
	DeadlineSec float64
}

// Feedback reports one executed client-round back to the selector.
type Feedback struct {
	ClientID int
	Round    int
	Outcome  device.Outcome
	// StatUtility is the loss-based statistical utility of the client's
	// update (Oort's |B|·sqrt(mean squared loss) signal); zero if unknown.
	StatUtility float64
}

// Selector chooses k clients each round and learns from feedback.
// Selectors are used single-threaded: the engines call Select on the
// round's dispatch pass and Observe on the collect pass, in selection
// order, from one goroutine — even when client execution itself is
// parallel.
type Selector interface {
	Name() string
	// Select returns the IDs of up to k clients from the pool. The IDs
	// should be distinct: the engines execute selected clients
	// concurrently, which is only safe across distinct clients, and they
	// fall back to sequential execution when a selection repeats an ID.
	Select(info RoundInfo, pool []*device.Client, k int) []int
	// Observe ingests the outcome of a client round.
	Observe(fb Feedback)
}

// Random selects uniformly at random — FedAvg's policy.
type Random struct {
	rng *rngstate.Source
}

// NewRandom returns the FedAvg random selector.
func NewRandom(seed int64) *Random {
	return &Random{rng: rngstate.New(seed)}
}

// Name implements Selector.
func (r *Random) Name() string { return "fedavg" }

// Select implements Selector: a uniform k-subset of the pool.
func (r *Random) Select(_ RoundInfo, pool []*device.Client, k int) []int {
	if k > len(pool) {
		k = len(pool)
	}
	perm := r.rng.Perm(len(pool))
	out := make([]int, 0, k)
	for _, idx := range perm[:k] {
		out = append(out, pool[idx].ID)
	}
	return out
}

// Observe implements Selector (random selection learns nothing).
func (r *Random) Observe(Feedback) {}

// scored is one ranking candidate: a client, its score, and the random
// draw that orders equal scores.
type scored struct {
	id    int
	score float64
	tie   float64
}

// sortByScore ranks ss best-first: descending score, equal scores by
// ascending tie draw.
func sortByScore(ss []scored) {
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].score != ss[j].score {
			return ss[i].score > ss[j].score
		}
		return ss[i].tie < ss[j].tie
	})
}

// topK ranks ss and returns the IDs of its best k.
func topK(ss []scored, k int) []int {
	sortByScore(ss)
	out := make([]int, min(k, len(ss)))
	for i := range out {
		out[i] = ss[i].id
	}
	return out
}

// topKByScore returns the client IDs with the k highest scores, shuffling
// ties deterministically via the provided rng.
func topKByScore(pool []*device.Client, score func(*device.Client) float64, k int, rng *rngstate.Source) []int {
	ss := make([]scored, len(pool))
	for i, c := range pool {
		ss[i] = scored{id: c.ID, score: score(c), tie: rng.Float64()}
	}
	return topK(ss, k)
}

// clamp01 bounds x to [0, 1].
func clamp01(x float64) float64 {
	return math.Max(0, math.Min(1, x))
}
