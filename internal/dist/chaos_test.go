package dist

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"floatfl/internal/data"
	"floatfl/internal/obs"
)

// fakeClockSleeper returns a Client.Sleep that waits on the fake clock,
// so retry backoff costs no wall time and stays under test control.
func fakeClockSleeper(clk *FakeClock) func(context.Context, time.Duration) error {
	return func(ctx context.Context, d time.Duration) error {
		fired := make(chan struct{})
		t := clk.AfterFunc(d, func() { close(fired) })
		select {
		case <-fired:
			return nil
		case <-ctx.Done():
			t.Stop()
			return ctx.Err()
		}
	}
}

// assertNoGoroutineLeak polls until the goroutine count returns to the
// baseline (plus slack for runtime helpers); hand-rolled, stdlib only.
func assertNoGoroutineLeak(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		n := runtime.NumGoroutine()
		if n <= base+2 {
			return
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			m := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak: %d at start, %d after chaos run\n%s", base, n, buf[:m])
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// runChaos drives numClients flaky clients — each with its own seeded
// fault injector — against a real aggregator until it reaches
// targetRounds. All time (leases, round timer, injected latency, retry
// backoff) flows through one fake clock that a driver goroutine advances,
// so expiry is never a wall-clock race. Returns only when training
// converged, with everything shut down and the goroutine baseline
// restored.
func runChaos(t *testing.T, numClients, targetRounds int, wallTimeout time.Duration) {
	t.Helper()
	fed, err := data.Generate("femnist", data.GenerateConfig{
		Clients: numClients, Alpha: 0.1, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	holdout := fed.GlobalTest
	if len(holdout) > 200 {
		holdout = holdout[:200]
	}

	base := runtime.NumGoroutine()

	clk := NewFakeClock(time.Unix(0, 0))
	srv, err := NewServer(ServerConfig{
		Spec: TrainSpec{
			Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
			Epochs: 2, BatchSize: 16, LR: 0.1,
		},
		AggregateK:     numClients / 2,
		MaxOutstanding: numClients,
		LeaseSeconds:   30,
		RoundSeconds:   60,
		MinUpdates:     1,
		Clock:          clk,
		Seed:           6,
		Holdout:        holdout,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())

	ctx, cancel := context.WithTimeout(context.Background(), wallTimeout)
	defer cancel()

	// Driver: virtual time marches while clients run, expiring leases,
	// firing the round timer, and resolving injected latency and backoff.
	driverDone := make(chan struct{})
	var driverWG sync.WaitGroup
	driverWG.Add(1)
	go func() {
		defer driverWG.Done()
		for {
			select {
			case <-driverDone:
				return
			default:
				// ~200 virtual ms per real ms: fast enough that a 30s
				// lease expires in ~150ms of wall time, slow enough that
				// an honest in-flight training step finishes well inside
				// its lease even under -race.
				clk.Advance(200 * time.Millisecond)
				time.Sleep(time.Millisecond)
			}
		}
	}()

	injectors := make([]*FaultInjector, numClients)
	transports := make([]*http.Transport, numClients)
	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			tr := &http.Transport{}
			inj := NewFaultInjector(chaosFaultConfig(int64(1000+i)), tr, clk)
			// Client retry and fault-injection counters share the server's
			// registry, so the /v1/metrics scrape below sees the whole run.
			inj.Instrument(srv.Metrics())
			injectors[i], transports[i] = inj, tr
			c := NewClient(hs.URL, fmt.Sprintf("flaky-%d", i),
				fed.Train[i], fed.LocalTest[i], int64(300+i))
			c.Instrument(srv.Metrics())
			sleep := fakeClockSleeper(clk)
			c.HTTPClient = &http.Client{Transport: inj, Timeout: defaultHTTPTimeout}
			c.Sleep = sleep
			c.Retry = RetryPolicy{MaxAttempts: 5, BaseDelay: 100 * time.Millisecond, MaxDelay: 2 * time.Second}
			// Registration itself runs through the injector; the server's
			// per-name idempotency makes blind re-registration safe.
			for ctx.Err() == nil {
				if err := c.Register(ctx, 10+float64(i%4)*5, 3000); err == nil {
					break
				}
				_ = sleep(ctx, time.Second)
			}
			for ctx.Err() == nil && srv.Round() < targetRounds {
				ok, err := c.Step(ctx, srv.Round())
				if err != nil {
					// Retries exhausted on injected faults; regroup and
					// try again next virtual second.
					_ = sleep(ctx, time.Second)
					continue
				}
				if !ok {
					// No slot (204) or stale round (409): back off briefly
					// instead of hammering the server.
					_ = sleep(ctx, time.Second)
				}
			}
		}(i)
	}
	wg.Wait()
	cancel()
	close(driverDone)
	driverWG.Wait()
	// Scrape the live endpoints while the HTTP server is still up:
	// /v1/status must be a pure projection of the /v1/metrics registry.
	assertStatusMetricsAgree(t, hs.URL)
	srv.Close()
	for _, tr := range transports {
		if tr != nil {
			tr.CloseIdleConnections()
		}
	}
	hs.Close()

	if srv.Round() < targetRounds {
		t.Fatalf("chaos run deadlocked: reached round %d of %d within %v",
			srv.Round(), targetRounds, wallTimeout)
	}
	if acc := srv.HoldoutAccuracy(); acc <= 0 {
		t.Fatalf("holdout accuracy %v after %d rounds under faults", acc, srv.Round())
	}
	var injected int
	for _, inj := range injectors {
		if inj == nil {
			continue
		}
		st := inj.Stats()
		injected += st.DroppedRequests + st.DroppedResponses + st.Errors5xx + st.Truncated
	}
	if injected == 0 {
		t.Fatal("chaos run injected no faults; the test proved nothing")
	}
	t.Logf("chaos: %d rounds, holdout %.3f, %d faults injected, %d lease expiries, %d partial aggregations",
		srv.Round(), srv.HoldoutAccuracy(), injected, srv.LeaseExpiries(), srv.PartialAggregations())

	assertNoGoroutineLeak(t, base)
}

// assertStatusMetricsAgree scrapes /v1/status and /v1/metrics?format=json
// from a live server and checks that every counter /v1/status reports,
// and its holdout accuracy, match their registry-backed source of truth.
// Both handlers read the same obs handles, so any disagreement means a
// value is being shadowed by ad-hoc state again.
func assertStatusMetricsAgree(t *testing.T, baseURL string) {
	t.Helper()
	var status StatusResponse
	getJSON(t, baseURL+"/v1/status", &status)
	var snap obs.Snapshot
	getJSON(t, baseURL+"/v1/metrics?format=json", &snap)

	counter := func(name string) int {
		for _, c := range snap.Counters {
			if c.Name == name {
				return int(c.Value)
			}
		}
		return 0
	}
	for _, check := range []struct {
		field  string
		status int
		metric int
	}{
		{"updates_seen", status.UpdatesSeen, counter("dist_updates_total")},
		{"lease_expiries", status.LeaseExpiries, counter("dist_lease_expiries_total")},
		{"partial_aggregations", status.PartialAggregations, counter("dist_partial_aggregations_total")},
	} {
		if check.status != check.metric {
			t.Errorf("/v1/status %s=%d disagrees with /v1/metrics %d",
				check.field, check.status, check.metric)
		}
	}
	statusDrops := 0
	for _, n := range status.Drops {
		statusDrops += n
	}
	metricDrops := 0
	for _, c := range snap.Counters {
		if strings.HasPrefix(c.Name, `dist_drops_total{`) {
			metricDrops += int(c.Value)
		}
	}
	if statusDrops != metricDrops {
		t.Errorf("/v1/status drops sum %d disagrees with /v1/metrics dist_drops_total sum %d",
			statusDrops, metricDrops)
	}
	if acc := gaugeValue(t, snap, "dist_holdout_acc"); acc != status.HoldoutAcc {
		t.Errorf("/v1/status holdout_acc=%v disagrees with /v1/metrics dist_holdout_acc=%v",
			status.HoldoutAcc, acc)
	}
	if counter("dist_rounds_total") != status.Round {
		t.Errorf("/v1/status round=%d disagrees with dist_rounds_total=%d",
			status.Round, counter("dist_rounds_total"))
	}
}

// TestChaosFlakyClientsConverge: N concurrent clients behind seeded fault
// injectors (dropped requests/responses, 5xx, truncated bodies, latency)
// against a real HTTP aggregator must still reach the target round count
// with nonzero holdout accuracy, never deadlock, and leak no goroutines.
// Run under -race in CI.
func TestChaosFlakyClientsConverge(t *testing.T) {
	runChaos(t, 6, 5, 90*time.Second)
}

// TestChaosSoak is the CI soak: more clients, more rounds, bounded wall
// time. Gated behind FLOAT_DIST_SOAK so local `go test ./...` stays fast.
func TestChaosSoak(t *testing.T) {
	if os.Getenv("FLOAT_DIST_SOAK") == "" {
		t.Skip("set FLOAT_DIST_SOAK=1 to run the chaos soak")
	}
	runChaos(t, 12, 8, 4*time.Minute)
}
