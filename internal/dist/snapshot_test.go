package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/checkpoint/statefultests"
	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/rl"
)

func postDrain(t *testing.T, url string, off bool) DrainResponse {
	t.Helper()
	body, _ := json.Marshal(DrainRequest{Off: off})
	resp, err := http.Post(url+"/v1/drain", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out DrainResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func getSnapshot(t testing.TB, url string) []byte {
	t.Helper()
	resp, err := http.Get(url + "/v1/snapshot")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: %s", resp.Status)
	}
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// TestDrainStopsNewTasks pins the drain protocol: while draining the
// server hands out no new tasks, and turning drain off re-opens hand-out.
func TestDrainStopsNewTasks(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	c := registeredClient(t, hs, fed, 0)
	ctx := context.Background()

	dr := postDrain(t, hs.URL, false)
	if !dr.Draining {
		t.Fatal("drain did not engage")
	}
	if !srv.Draining() {
		t.Fatal("server does not report draining")
	}
	if ok, err := c.Step(ctx, 0); err != nil || ok {
		t.Fatalf("Step while draining: ok=%v err=%v, want a declined task", ok, err)
	}
	var st StatusResponse
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Draining {
		t.Fatal("status does not report draining")
	}

	if dr := postDrain(t, hs.URL, true); dr.Draining {
		t.Fatal("drain did not disengage")
	}
	if ok, err := c.Step(ctx, 0); err != nil || !ok {
		t.Fatalf("Step after drain off: ok=%v err=%v, want participation", ok, err)
	}
}

// TestSnapshotRestore drives a server through an aggregation, snapshots it
// over HTTP, restores into a freshly built server, and requires the
// restored server to re-snapshot byte-identically — round, global model,
// client registry, controller state, and metrics all carried over.
func TestSnapshotRestore(t *testing.T) {
	mkCtrl := func() *core.Float {
		return core.New(core.Config{
			Agent:           rl.Config{Seed: 17, TotalRounds: 50},
			BatchSize:       16,
			Epochs:          2,
			ClientsPerRound: 2,
		})
	}
	srv, hs, fed := testServer(t, mkCtrl(), 2)
	ctx := context.Background()
	c0 := registeredClient(t, hs, fed, 0)
	c1 := registeredClient(t, hs, fed, 1)
	for _, c := range []*Client{c0, c1} {
		if ok, err := c.Step(ctx, 0); err != nil || !ok {
			t.Fatalf("Step: ok=%v err=%v", ok, err)
		}
	}
	if srv.Round() != 1 {
		t.Fatalf("round %d after 2 updates with k=2, want 1", srv.Round())
	}

	postDrain(t, hs.URL, false)
	blob := getSnapshot(t, hs.URL)

	// A fresh server with an equivalent config; its own model init and
	// zeroed counters must all be overwritten by the restore.
	srv2, hs2, _ := testServer(t, mkCtrl(), 2)
	if err := srv2.RestoreSnapshot(blob); err != nil {
		t.Fatal(err)
	}
	if srv2.Round() != srv.Round() {
		t.Fatalf("restored round %d, want %d", srv2.Round(), srv.Round())
	}
	if srv2.HoldoutAccuracy() != srv.HoldoutAccuracy() {
		t.Fatalf("restored holdout %v, want %v", srv2.HoldoutAccuracy(), srv.HoldoutAccuracy())
	}
	blob2 := getSnapshot(t, hs2.URL)
	if !bytes.Equal(blob, blob2) {
		t.Fatalf("restore → snapshot is not a fixed point (%dB vs %dB)", len(blob), len(blob2))
	}

	// Registration stays idempotent across the restore: the same client
	// name must resolve to its old identity, not a duplicate.
	var reg RegisterResponse
	body, _ := json.Marshal(RegisterRequest{Name: c0.Name, GFLOPS: 15, MemoryMB: 3000})
	resp, err := http.Post(hs2.URL+"/v1/register", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if reg.ClientID != c0.ID() {
		t.Fatalf("re-register after restore gave ID %d, want %d", reg.ClientID, c0.ID())
	}
}

// TestSnapshotRestoreRejectsBadBlob pins clean failure: corruption and
// truncation surface as the typed checkpoint errors and leave the target
// server untouched.
func TestSnapshotRestoreRejectsBadBlob(t *testing.T) {
	srv, hs, _ := testServer(t, nil, 2)
	blob := getSnapshot(t, hs.URL)

	srv2, hs2, _ := testServer(t, nil, 2)
	before := getSnapshot(t, hs2.URL)

	corrupt := append([]byte(nil), blob...)
	corrupt[len(corrupt)/2] ^= 0x41
	if err := srv2.RestoreSnapshot(corrupt); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("corrupt blob: got %v, want ErrChecksum", err)
	}
	if err := srv2.RestoreSnapshot(blob[:len(blob)-3]); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Fatalf("truncated blob: got %v, want ErrTruncated", err)
	}
	wrongKind, err := checkpoint.EncodeBytes("engine-sync", nil)
	if err != nil {
		t.Fatal(err)
	}
	var fe *checkpoint.FormatError
	if err := srv2.RestoreSnapshot(wrongKind); !errors.As(err, &fe) {
		t.Fatalf("wrong kind: got %v, want FormatError", err)
	}
	if after := getSnapshot(t, hs2.URL); !bytes.Equal(before, after) {
		t.Fatal("failed restores mutated the server")
	}
	_ = srv
}

// TestSnapshotRestoreRejectsWrongLengthDelta: a well-framed snapshot whose
// buffered delta has the wrong length is a CompatError found before the
// first mutation — status, model bytes and controller state stay what
// NewServer built (the check used to run after the controller, the model,
// the round and the registry had been replaced).
func TestSnapshotRestoreRejectsWrongLengthDelta(t *testing.T) {
	mkCtrl := func() *core.Float {
		return core.New(core.Config{
			Agent:           rl.Config{Seed: 17, TotalRounds: 50},
			BatchSize:       16,
			Epochs:          2,
			ClientsPerRound: 2,
		})
	}
	// k = 3 with two updates in: an aggregation behind it, two deltas buffered.
	_, hs, fed := testServer(t, mkCtrl(), 3)
	ctx := context.Background()
	for i := 0; i < 5; i++ {
		if ok, err := registeredClient(t, hs, fed, i).Step(ctx, 0); err != nil || !ok {
			t.Fatalf("Step: ok=%v err=%v", ok, err)
		}
	}
	payload, err := checkpoint.DecodeBytes(getSnapshot(t, hs.URL), ServerSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeServerState(payload)
	if err != nil {
		t.Fatal(err)
	}
	if st.Round != 1 || len(st.Deltas) != 2 || len(st.Controller) == 0 {
		t.Fatalf("snapshot has round %d, %d deltas, %dB controller; the test needs 1, 2 and some", st.Round, len(st.Deltas), len(st.Controller))
	}
	st.Deltas[1] = st.Deltas[1][:len(st.Deltas[1])-1]
	e := checkpoint.NewEnc(len(payload))
	st.appendTo(e)
	bad, err := checkpoint.EncodeBytes(ServerSnapshotKind, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}

	ctrl2 := mkCtrl()
	srv2, hs2, _ := testServer(t, ctrl2, 3)
	observe := func() (status, model, ctrl, snap []byte) {
		resp, err := http.Get(hs2.URL + "/v1/status")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if status, err = io.ReadAll(resp.Body); err != nil {
			t.Fatal(err)
		}
		if model, err = srv2.global.MarshalBinary(); err != nil {
			t.Fatal(err)
		}
		if ctrl, err = ctrl2.CheckpointState(); err != nil {
			t.Fatal(err)
		}
		return status, model, ctrl, getSnapshot(t, hs2.URL)
	}
	status, model, ctrl, snap := observe()
	var ce *checkpoint.CompatError
	if err := srv2.RestoreSnapshot(bad); !errors.As(err, &ce) || ce.Field != "delta_len" {
		t.Fatalf("wrong-length delta: got %v, want a delta_len CompatError", err)
	}
	status2, model2, ctrl2State, snap2 := observe()
	if !bytes.Equal(status, status2) {
		t.Errorf("rejected restore changed /v1/status:\n before %s\n after  %s", status, status2)
	}
	if !bytes.Equal(model, model2) {
		t.Error("rejected restore changed the global model")
	}
	if !bytes.Equal(ctrl, ctrl2State) {
		t.Error("rejected restore changed the controller state")
	}
	if !bytes.Equal(snap, snap2) {
		t.Error("rejected restore changed the server snapshot")
	}
}

// snapshotter presents the server's Snapshot/RestoreSnapshot pair as a
// checkpoint.Stateful, for the conformance suite.
type snapshotter struct{ *Server }

func (s snapshotter) CheckpointState() ([]byte, error) { return s.Snapshot() }
func (s snapshotter) RestoreCheckpoint(b []byte) error { return s.RestoreSnapshot(b) }

// TestSnapshotConformance runs the checkpoint.Stateful suite over the
// server through its own entry points: a server with a FLOAT controller,
// an aggregation behind it and two deltas buffered re-snapshots to the
// same bytes after a restore into a fresh server; every prefix, trailing
// garbage and a version 1 frame are typed refusals that change nothing.
func TestSnapshotConformance(t *testing.T) {
	servers := map[*Server]*httptest.Server{}
	feds := map[*Server]*data.Federation{}
	statefultests.Run(t, statefultests.Subject{
		Framed: true,
		Fresh: func(t *testing.T) checkpoint.Stateful {
			srv, hs, fed := testServer(t, core.New(core.Config{
				Agent:           rl.Config{Seed: 17, TotalRounds: 50},
				BatchSize:       16,
				Epochs:          2,
				ClientsPerRound: 2,
			}), 3)
			servers[srv], feds[srv] = hs, fed
			return snapshotter{srv}
		},
		Drive: func(t *testing.T, s checkpoint.Stateful) {
			srv := s.(snapshotter).Server
			for i := 0; i < 5; i++ {
				if ok, err := registeredClient(t, servers[srv], feds[srv], i).Step(context.Background(), 0); err != nil || !ok {
					t.Fatalf("Step: ok=%v err=%v", ok, err)
				}
			}
		},
	})
}
