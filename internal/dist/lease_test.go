package dist

import (
	"context"
	"net/http"
	"sync"
	"testing"
	"time"

	"floatfl/internal/device"
	"floatfl/internal/opt"
	"floatfl/internal/tensor"
)

// recordingController captures every Decide/Feedback the server makes so
// tests can assert on exactly what the Controller was told.
type recordingController struct {
	mu       sync.Mutex
	decides  []device.Resources
	devices  []*device.Client
	outcomes []device.Outcome
}

func (r *recordingController) Name() string { return "recording" }

func (r *recordingController) Decide(round int, c *device.Client, res device.Resources, hf float64) opt.Technique {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.decides = append(r.decides, res)
	r.devices = append(r.devices, c)
	return opt.TechNone
}

func (r *recordingController) Feedback(round int, c *device.Client, tech opt.Technique, out device.Outcome, acc float64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.outcomes = append(r.outcomes, out)
}

func (r *recordingController) lastDecide() device.Resources {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.decides[len(r.decides)-1]
}

func (r *recordingController) lastDevice() *device.Client {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.devices[len(r.devices)-1]
}

func (r *recordingController) dropCount(reason device.DropReason) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, out := range r.outcomes {
		if !out.Completed && out.Reason == reason {
			n++
		}
	}
	return n
}

func TestFakeClockFiresInOrder(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	var order []int
	clk.AfterFunc(3*time.Second, func() { order = append(order, 3) })
	clk.AfterFunc(1*time.Second, func() { order = append(order, 1) })
	two := clk.AfterFunc(2*time.Second, func() { order = append(order, 2) })
	clk.AfterFunc(1*time.Second, func() { order = append(order, 11) }) // ties: creation order

	clk.Advance(1500 * time.Millisecond)
	if len(order) != 2 || order[0] != 1 || order[1] != 11 {
		t.Fatalf("after 1.5s fired %v", order)
	}
	if !two.Stop() {
		t.Fatal("Stop on pending timer returned false")
	}
	if two.Stop() {
		t.Fatal("second Stop returned true")
	}
	clk.Advance(10 * time.Second)
	if len(order) != 3 || order[2] != 3 {
		t.Fatalf("final order %v", order)
	}
	if got := clk.Now(); !got.Equal(time.Unix(0, 0).Add(11500 * time.Millisecond)) {
		t.Fatalf("clock at %v", got)
	}
	// A timer armed inside a callback fires within the same Advance window.
	fired := false
	clk.AfterFunc(time.Second, func() {
		clk.AfterFunc(time.Second, func() { fired = true })
	})
	clk.Advance(5 * time.Second)
	if !fired {
		t.Fatal("timer armed by a callback did not fire inside the window")
	}
}

// TestLeaseExpiryRecoversSeedDeadlock reproduces the seed-state deadlock —
// every MaxOutstanding leaseholder dies silently after taking a task, so
// /v1/task answers 204 forever — and proves the lease machinery recovers:
// expiry frees the slots, reports deadline dropouts to the Controller, and
// lets fresh clients make the round progress. Fully deterministic: every
// expiry is driven by the fake clock.
func TestLeaseExpiryRecoversSeedDeadlock(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	rec := &recordingController{}
	srv, hs, fed := testServerConfig(t, ServerConfig{
		AggregateK:     2,
		MaxOutstanding: 4,
		LeaseSeconds:   30,
		RoundSeconds:   3600, // out of the way: this test isolates leases
		Controller:     rec,
		Clock:          clk,
	})
	ctx := context.Background()

	// Four zombies take every slot and die without another byte.
	for i := 0; i < 4; i++ {
		z := registeredClient(t, hs, fed, i)
		status, err := z.postStatus(ctx, "/v1/task", TaskRequest{ClientID: z.ID(),
			Resources: fullReport()}, &TaskResponse{})
		if err != nil || status != http.StatusOK {
			t.Fatalf("zombie %d task: %d %v", i, status, err)
		}
	}

	// Seed-state behavior: the server is now wedged — no slot ever frees.
	honest := registeredClient(t, hs, fed, 4)
	status, err := honest.postStatus(ctx, "/v1/task", TaskRequest{ClientID: honest.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNoContent {
		t.Fatalf("expected 204 while all slots are pinned, got %d", status)
	}

	// Leases expire: slots free, dropouts are reported.
	clk.Advance(31 * time.Second)
	st, err := honest.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Outstanding != 0 || st.ActiveLeases != 0 {
		t.Fatalf("leases not reclaimed: %+v", st)
	}
	if st.LeaseExpiries != 4 || st.Drops["deadline"] != 4 {
		t.Fatalf("expiry accounting wrong: %+v", st)
	}
	if got := rec.dropCount(device.DropDeadline); got != 4 {
		t.Fatalf("controller got %d deadline dropouts, want 4", got)
	}

	// The round makes progress again: two honest clients finish it.
	honest2 := registeredClient(t, hs, fed, 5)
	for _, c := range []*Client{honest, honest2} {
		ok, err := c.Step(ctx, 0)
		if err != nil || !ok {
			t.Fatalf("honest step after recovery: %v %v", ok, err)
		}
	}
	if srv.Round() != 1 {
		t.Fatalf("round did not advance after recovery: %d", srv.Round())
	}
	if srv.HoldoutAccuracy() <= 0 {
		t.Fatal("holdout accuracy is zero after aggregation")
	}
}

// TestRoundTimerAggregatesPartialBuffer: a round that never reaches
// AggregateK still advances once the round timer fires, as long as the
// MinUpdates floor is met — and an empty buffer re-arms the timer instead
// of advancing a round with nothing to apply.
func TestRoundTimerAggregatesPartialBuffer(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv, hs, fed := testServerConfig(t, ServerConfig{
		AggregateK:   4, // never reached: only one client participates
		LeaseSeconds: 3600,
		RoundSeconds: 60,
		MinUpdates:   1,
		Clock:        clk,
	})
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)

	// An empty round does not advance on the timer; it re-arms.
	clk.Advance(61 * time.Second)
	if srv.Round() != 0 {
		t.Fatalf("empty round advanced to %d", srv.Round())
	}

	const rounds = 3
	for r := 0; r < rounds; r++ {
		ok, err := c.Step(ctx, r)
		if err != nil || !ok {
			t.Fatalf("step round %d: %v %v", r, ok, err)
		}
		if srv.Round() != r {
			t.Fatalf("round advanced early: at %d during round %d", srv.Round(), r)
		}
		clk.Advance(61 * time.Second)
		if srv.Round() != r+1 {
			t.Fatalf("round timer did not advance round %d (at %d)", r, srv.Round())
		}
	}
	if got := srv.PartialAggregations(); got != rounds {
		t.Fatalf("partial aggregations = %d, want %d", got, rounds)
	}
	if srv.HoldoutAccuracy() <= 0 {
		t.Fatal("holdout accuracy is zero after partial aggregations")
	}
	// The re-armed timer from the empty round must not have double-fired:
	// after the loop the server sits at exactly `rounds`.
	clkStatus, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if clkStatus.PartialAggregations != rounds || clkStatus.Round != rounds {
		t.Fatalf("status inconsistent: %+v", clkStatus)
	}
}

// TestLeaseRenewedOnTaskRefetch: an alive client that re-fetches its task
// renews the lease instead of being reclaimed on the original schedule.
func TestLeaseRenewedOnTaskRefetch(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv, hs, fed := testServerConfig(t, ServerConfig{
		AggregateK:   2,
		LeaseSeconds: 30,
		RoundSeconds: 3600,
		Clock:        clk,
	})
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)
	take := func() int {
		t.Helper()
		status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
			Resources: fullReport()}, &TaskResponse{})
		if err != nil {
			t.Fatal(err)
		}
		return status
	}
	if take() != http.StatusOK {
		t.Fatal("initial task fetch failed")
	}
	clk.Advance(20 * time.Second)
	if take() != http.StatusOK { // renews the lease at t=20s
		t.Fatal("re-fetch failed")
	}
	clk.Advance(20 * time.Second) // t=40s: original lease would have died at 30s
	if srv.LeaseExpiries() != 0 {
		t.Fatal("renewed lease expired on the original schedule")
	}
	clk.Advance(15 * time.Second) // t=55s: renewal dies at 50s
	if srv.LeaseExpiries() != 1 {
		t.Fatalf("renewed lease did not expire: %d expiries", srv.LeaseExpiries())
	}
}

// TestUpdateAfterLeaseExpiryRejected: an upload that arrives after the
// server reclaimed the lease is a 409, not a double-spend of the slot.
func TestUpdateAfterLeaseExpiryRejected(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv, hs, fed := testServerConfig(t, ServerConfig{
		AggregateK:   2,
		LeaseSeconds: 30,
		RoundSeconds: 3600,
		Clock:        clk,
	})
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)
	status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	clk.Advance(31 * time.Second) // lease reclaimed
	blob, err := opt.CompressUpdate(tensor.NewVector(paramCount(t, c)), 16)
	if err != nil {
		t.Fatal(err)
	}
	status, msg := postUpdate(t, hs.URL, updateFrame(t, UpdateRequest{
		ClientID: c.ID(), Round: 0, Technique: "none", Samples: 5,
	}, blob))
	if status != http.StatusConflict {
		t.Fatalf("post-expiry upload returned %d (%s), want 409", status, msg)
	}
	if srv.Round() != 0 {
		t.Fatal("expired upload advanced the round")
	}
}
