package dist

import (
	"context"
	"encoding/json"
	"net/http"
	"testing"
	"time"

	"floatfl/internal/obs"
)

// runRounds drives the registered clients through the given rounds.
func runRounds(t testing.TB, clients []*Client, rounds int) {
	t.Helper()
	ctx := context.Background()
	for round := 0; round < rounds; round++ {
		for _, c := range clients {
			if ok, err := c.Step(ctx, round); err != nil || !ok {
				t.Fatalf("client %d round %d: ok=%v err=%v", c.ID(), round, ok, err)
			}
		}
	}
}

// getTimeline fetches /v1/timeline (optionally with ?since=) and decodes
// the response.
func getTimeline(t *testing.T, base, query string) obs.TimelineResponse {
	t.Helper()
	resp, err := http.Get(base + "/v1/timeline" + query)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /v1/timeline%s: status %d", query, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var tr obs.TimelineResponse
	if err := json.NewDecoder(resp.Body).Decode(&tr); err != nil {
		t.Fatal(err)
	}
	return tr
}

// TestTimelineEndpointIncrementalReads drives aggregations on a fake
// clock and reads the timeline back incrementally: one sample per
// aggregation, timestamped in fake-clock seconds since server start, with
// ?since= returning exactly the unseen suffix.
func TestTimelineEndpointIncrementalReads(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv, hs, fed := testServerConfig(t, ServerConfig{AggregateK: 2, Clock: clk})
	clients := []*Client{
		registeredClient(t, hs, fed, 0),
		registeredClient(t, hs, fed, 1),
	}

	if tr := getTimeline(t, hs.URL, ""); tr.Latest != -1 || len(tr.Samples) != 0 {
		t.Fatalf("pre-aggregation timeline = %+v", tr)
	}

	clk.Advance(3 * time.Second)
	runRounds(t, clients, 1)

	tr := getTimeline(t, hs.URL, "")
	if tr.Latest != 0 || len(tr.Samples) != 1 {
		t.Fatalf("after round 0: %+v", tr)
	}
	s := tr.Samples[0]
	if s.Round != 0 {
		t.Fatalf("sample round = %d", s.Round)
	}
	if s.Clock != 3 {
		t.Fatalf("sample clock = %v, want 3 (fake-clock seconds since start)", s.Clock)
	}
	// The first sample is a full snapshot of the server registry plus the
	// per-aggregation fact.
	for _, name := range []string{"dist_rounds_total", "dist_updates_total", "round_aggregated_updates"} {
		if _, ok := s.Values[name]; !ok {
			t.Errorf("sample missing series %q: %v", name, s.Values)
		}
	}
	if got := s.Values["round_aggregated_updates"]; got != 2 {
		t.Errorf("round_aggregated_updates = %v, want 2", got)
	}

	clk.Advance(4 * time.Second)
	runRounds(t, clients, 1) // clients re-fetch: server is on round 1 internally

	// Incremental read: only the new sample comes back.
	inc := getTimeline(t, hs.URL, "?since=0")
	if len(inc.Samples) != 1 || inc.Samples[0].Round != 1 || inc.Latest != 1 {
		t.Fatalf("since=0: %+v", inc)
	}
	if inc.Samples[0].Clock != 7 {
		t.Fatalf("second sample clock = %v, want 7", inc.Samples[0].Clock)
	}
	// Caught-up poll returns an empty, non-null sample list.
	if caught := getTimeline(t, hs.URL, "?since=1"); caught.Samples == nil || len(caught.Samples) != 0 {
		t.Fatalf("caught-up: %+v", caught)
	}

	// Bad cursors are a typed 400.
	resp, err := http.Get(hs.URL + "/v1/timeline?since=nope")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 400 {
		t.Fatalf("since=nope status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Fatalf("error Content-Type = %q", ct)
	}
	_ = srv
}

// TestSnapshotCarriesTimeline proves /v1/snapshot → RestoreSnapshot
// continues the same run history: the restored server serves the
// pre-snapshot samples and keeps appending after them.
func TestSnapshotCarriesTimeline(t *testing.T) {
	clk := NewFakeClock(time.Unix(0, 0))
	srv, hs, fed := testServerConfig(t, ServerConfig{AggregateK: 2, Clock: clk})
	clients := []*Client{
		registeredClient(t, hs, fed, 0),
		registeredClient(t, hs, fed, 1),
	}
	clk.Advance(2 * time.Second)
	runRounds(t, clients, 2)
	before := getTimeline(t, hs.URL, "")
	if len(before.Samples) != 2 {
		t.Fatalf("pre-snapshot samples = %d, want 2", len(before.Samples))
	}

	blob, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}

	clk2 := NewFakeClock(time.Unix(0, 0))
	srv2, hs2, _ := testServerConfig(t, ServerConfig{AggregateK: 2, Clock: clk2})
	if err := srv2.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	after := getTimeline(t, hs2.URL, "")
	a, _ := json.Marshal(before)
	b, _ := json.Marshal(after)
	if string(a) != string(b) {
		t.Fatalf("restored timeline differs:\n%s\nvs\n%s", a, b)
	}
	_ = hs2
}
