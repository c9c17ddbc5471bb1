package selection

import (
	"math"
	"testing"

	"floatfl/internal/device"
)

func TestOortPacerRelaxesWhenClientsMiss(t *testing.T) {
	o := NewOort(1)
	p := pool(t, 10)
	o.Select(info(0), p, 5) // initializes pacerT from the deadline
	t0 := o.pacerT
	if t0 <= 0 {
		t.Fatal("pacer not initialized")
	}
	// Feed a full window of completions slower than the target.
	for i := 0; i < 25; i++ {
		o.Observe(Feedback{ClientID: i % 10, Outcome: device.Outcome{
			Completed: true, Cost: device.Cost{TotalSeconds: t0 * 3},
		}})
	}
	o.Select(info(1), p, 5)
	if o.pacerT <= t0 {
		t.Fatalf("pacer did not relax: %v -> %v", t0, o.pacerT)
	}
}

func TestOortPacerTightensWhenEveryoneBeatsIt(t *testing.T) {
	o := NewOort(2)
	p := pool(t, 10)
	o.Select(info(0), p, 5)
	t0 := o.pacerT
	for i := 0; i < 25; i++ {
		o.Observe(Feedback{ClientID: i % 10, Outcome: device.Outcome{
			Completed: true, Cost: device.Cost{TotalSeconds: t0 / 10},
		}})
	}
	o.Select(info(1), p, 5)
	if o.pacerT >= t0 {
		t.Fatalf("pacer did not tighten: %v -> %v", t0, o.pacerT)
	}
}

func TestOortBlacklistExcludesChronicDroppers(t *testing.T) {
	o := NewOort(4)
	for i := 0; i < oortBlacklistAfter; i++ {
		if math.IsInf(o.utility(0, 60), -1) {
			t.Fatalf("client blacklisted after %d dropouts, want %d", i, oortBlacklistAfter)
		}
		o.Observe(Feedback{ClientID: 0, Outcome: device.Outcome{Completed: false,
			Cost: device.Cost{TotalSeconds: 100}}})
	}
	if !math.IsInf(o.utility(0, 60), -1) {
		t.Fatal("blacklisted client should have -inf utility")
	}
	// A completion resets the streak.
	o.Observe(Feedback{ClientID: 0, Outcome: device.Outcome{Completed: true,
		Cost: device.Cost{TotalSeconds: 10}}})
	if math.IsInf(o.utility(0, 60), -1) {
		t.Fatal("completion should lift the blacklist")
	}
}

func TestREFLPersistencePredictor(t *testing.T) {
	r := NewREFL(5)
	// Flapping client: ON 5 of 8 rounds, currently ON, but an ON round is
	// followed by another only once in four — base rate passes,
	// persistence fails.
	r.history[1] = []bool{true, true, false, true, false, true, false, true}
	if r.predictAvailable(1) {
		t.Fatal("flapping client should be predicted unavailable")
	}
	// Rarely-on client: ON only 3 of 8 rounds, but currently in a window
	// that persists — persistence passes, the base rate fails.
	r.history[4] = []bool{false, false, false, false, false, true, true, true}
	if r.predictAvailable(4) {
		t.Fatal("client below the base rate should be predicted unavailable")
	}
	// Stable client: long ON runs, currently ON.
	r.history[2] = []bool{true, true, true, true, false, true, true, true}
	if !r.predictAvailable(2) {
		t.Fatal("stable ON client should be predicted available")
	}
	// Currently OFF client fails the last-observation gate.
	r.history[3] = []bool{true, true, true, true, true, true, true, false}
	if r.predictAvailable(3) {
		t.Fatal("currently-OFF client should be predicted unavailable")
	}
}

func TestOortSelectSkipsBlacklisted(t *testing.T) {
	p := pool(t, 10)
	o := NewOort(6)
	// Clients 0-4 were the most useful until they dropped out
	// oortBlacklistAfter rounds in a row; the rest are good. Without the
	// blacklist the droppers' decayed utility, 100·0.5^4, would still beat
	// the good clients' 1.
	done := device.Outcome{Completed: true, Cost: device.Cost{TotalSeconds: 10}}
	for id := 0; id < 10; id++ {
		if id >= 5 {
			o.Observe(Feedback{ClientID: id, Outcome: done, StatUtility: 1})
			continue
		}
		o.Observe(Feedback{ClientID: id, Outcome: done, StatUtility: 100})
		for rep := 0; rep < oortBlacklistAfter; rep++ {
			o.Observe(Feedback{ClientID: id, Outcome: device.Outcome{
				Reason: device.DropDeadline, Cost: device.Cost{TotalSeconds: 10}}})
		}
	}
	ids := o.Select(info(1), p, 5)
	for _, id := range ids {
		if id < 5 {
			t.Fatalf("blacklisted client %d selected while good clients available", id)
		}
	}
	// When only blacklisted clients can fill the round, they are used.
	ids = o.Select(info(2), p, 10)
	if len(ids) != 10 {
		t.Fatalf("fallback did not fill the round: %d selected", len(ids))
	}
}
