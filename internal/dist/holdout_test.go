package dist

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/rngstate"
)

// getJSON GETs url and decodes its 200 JSON body into out.
func getJSON(t testing.TB, url string, out interface{}) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer drainClose(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: status %d", url, resp.StatusCode)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
}

// gaugeValue reads one gauge out of a registry snapshot.
func gaugeValue(t testing.TB, snap obs.Snapshot, name string) float64 {
	t.Helper()
	for _, g := range snap.Gauges {
		if g.Name == name {
			return g.Value
		}
	}
	t.Fatalf("registry snapshot has no gauge %q", name)
	return 0
}

// lastRowAcc is the dist_holdout_acc of a timeline's last row, which must
// be round 0's (a timeline row carries every series in its first sample).
func lastRowAcc(t testing.TB, samples []obs.TimelineSample) float64 {
	t.Helper()
	if len(samples) == 0 || samples[len(samples)-1].Round != 0 {
		t.Fatalf("timeline %+v has no row for round 0", samples)
	}
	acc, ok := samples[len(samples)-1].Values["dist_holdout_acc"]
	if !ok {
		t.Fatal("round 0's row has no dist_holdout_acc")
	}
	return acc
}

// pendingServer aggregates round 0 (AggregateK 2, fake clock) and returns
// the server with that aggregation's holdout evaluation not yet joined,
// together with the oracle: the accuracy a fresh model, loaded from the
// new version's task blob, reaches on the holdout. On the way it checks
// that a round-1 task is handed out without joining the evaluation.
func pendingServer(t *testing.T) (*Server, *httptest.Server, float64) {
	t.Helper()
	srv, hs, fed := testServerConfig(t, ServerConfig{AggregateK: 2, Clock: NewFakeClock(time.Unix(0, 0))})
	clients := []*Client{registeredClient(t, hs, fed, 0), registeredClient(t, hs, fed, 1)}
	runRounds(t, clients, 1)
	pending := func() *pendingEval {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.pending
	}
	p := pending()
	if p == nil {
		t.Fatal("no evaluation pending after the K-th update")
	}
	task, status, err := srv.assignTask(TaskRequest{ClientID: clients[0].ID()})
	if err != nil || status != http.StatusOK || task.Round != 1 {
		t.Fatalf("round-1 task: status %d, round %d, err %v", status, task.Round, err)
	}
	if pending() != p {
		t.Fatal("handing out a round-1 task joined the pending evaluation")
	}
	spec := srv.cfg.Spec
	model, err := nn.NewModel(spec.Arch, spec.InDim, spec.Classes, rngstate.New(0))
	if err != nil {
		t.Fatal(err)
	}
	if err := model.UnmarshalBinary(task.Model); err != nil {
		t.Fatal(err)
	}
	oracle := model.Evaluate(fed.GlobalTest[:200])
	if oracle == 0 {
		t.Fatal("oracle accuracy is 0, the value before any evaluation; the surfaces could not tell a missing join")
	}
	return srv, hs, oracle
}

// TestEveryReadJoinsPendingEvaluation reads each surface that reports the
// holdout accuracy, once, from a server whose last evaluation is still
// pending: each must join it and show the oracle's accuracy, as a server
// that evaluated under its lock would. Close, which must leave nothing
// running, is one more row.
func TestEveryReadJoinsPendingEvaluation(t *testing.T) {
	for _, tc := range []struct {
		name string
		read func(t *testing.T, srv *Server, url string) []float64
	}{
		{"HoldoutAccuracy", func(t *testing.T, srv *Server, _ string) []float64 {
			return []float64{srv.HoldoutAccuracy()}
		}},
		{"/v1/status", func(t *testing.T, _ *Server, url string) []float64 {
			var st StatusResponse
			getJSON(t, url+"/v1/status", &st)
			return []float64{st.HoldoutAcc}
		}},
		{"/v1/metrics", func(t *testing.T, _ *Server, url string) []float64 {
			var snap obs.Snapshot
			getJSON(t, url+"/v1/metrics?format=json", &snap)
			return []float64{gaugeValue(t, snap, "dist_holdout_acc")}
		}},
		{"/v1/timeline", func(t *testing.T, _ *Server, url string) []float64 {
			return []float64{lastRowAcc(t, getTimeline(t, url, "").Samples)}
		}},
		{"Timeline", func(t *testing.T, srv *Server, _ string) []float64 {
			return []float64{lastRowAcc(t, srv.Timeline().Samples())}
		}},
		{"Snapshot", func(t *testing.T, srv *Server, _ string) []float64 {
			blob, err := srv.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			payload, err := checkpoint.DecodeBytes(blob, ServerSnapshotKind)
			if err != nil {
				t.Fatal(err)
			}
			st, err := decodeServerState(payload)
			if err != nil {
				t.Fatal(err)
			}
			tl := obs.NewTimeline(nil, 0)
			if err := tl.RestoreCheckpoint(st.Timeline); err != nil {
				t.Fatal(err)
			}
			return []float64{st.HoldoutAcc, gaugeValue(t, st.Obs, "dist_holdout_acc"), lastRowAcc(t, tl.Samples())}
		}},
		{"Close", func(t *testing.T, srv *Server, _ string) []float64 {
			srv.Close()
			srv.mu.Lock()
			defer srv.mu.Unlock()
			return []float64{srv.holdoutAcc}
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs, oracle := pendingServer(t)
			for i, got := range tc.read(t, srv, hs.URL) {
				if got != oracle {
					t.Errorf("value %d: holdout accuracy %v, want the oracle's %v", i, got, oracle)
				}
			}
			srv.mu.Lock()
			defer srv.mu.Unlock()
			if srv.pending != nil {
				t.Error("the read left the evaluation pending")
			}
		})
	}
}

// TestRestoreOverPendingEvaluation: a restore replaces the model a pending
// evaluation reads, so it joins that evaluation first. Neither the stale
// accuracy nor its timeline row may land on the restored state, which
// therefore re-snapshots to the bytes it was restored from.
func TestRestoreOverPendingEvaluation(t *testing.T) {
	src, hs, fed := testServer(t, nil, 2)
	runRounds(t, []*Client{registeredClient(t, hs, fed, 2), registeredClient(t, hs, fed, 3)}, 2)
	blob, err := src.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	dst, _, _ := pendingServer(t)
	if err := dst.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	again, err := dst.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, blob) {
		t.Fatalf("restore over a pending evaluation is not a fixed point: holdout %v, want %v", dst.HoldoutAccuracy(), src.HoldoutAccuracy())
	}
}
