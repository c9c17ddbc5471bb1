package dist

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/checkpoint/statefultests"
	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
)

// floatCtrl is the FLOAT controller the snapshot tests run against.
func floatCtrl(clientsPerRound int) *core.Float {
	return core.New(core.Config{
		Agent:           rl.Config{Seed: 17, TotalRounds: 50},
		BatchSize:       16,
		Epochs:          2,
		ClientsPerRound: clientsPerRound,
	})
}

// TestServerSnapshotPinned pins floatd's bytes end to end: four clients
// train in lock step for three rounds on a fake clock with AggregateK 4,
// the server drains, and the first 8 bytes of SHA-256 over its snapshot
// must not move. The client round and the weighted apply are the
// simulator's own (fl.TrainLocal, fl.ApplyAggregate), so this digest is
// what proves sharing them changed no float operation on the floatd side.
// Quant8 exercises the stochastic update transform; FLOAT exercises
// controller state.
func TestServerSnapshotPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		ctrl fl.Controller
		want string
	}{
		{"static-quant8", fl.StaticController{Tech: opt.TechQuant8}, "c823073ec2d2b36f"},
		{"float", floatCtrl(4), "4a9bef818a3385ad"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srv, hs, fed := testServerConfig(t, ServerConfig{AggregateK: 4, Controller: tc.ctrl, Clock: NewFakeClock(time.Unix(0, 0))})
			clients := make([]*Client, 4)
			for i := range clients {
				clients[i] = NewClient(hs.URL, fmt.Sprintf("pin-%d", i), fed.Train[i], fed.LocalTest[i], int64(100+i))
				if err := clients[i].Register(context.Background(), 15, 3000); err != nil {
					t.Fatal(err)
				}
			}
			runRounds(t, clients, 3)
			srv.SetDraining(true)
			blob, err := srv.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			if srv.Round() != 3 {
				t.Fatalf("round %d after three lock-step rounds, want 3", srv.Round())
			}
			sum := sha256.Sum256(blob)
			if got := hex.EncodeToString(sum[:8]); got != tc.want {
				t.Errorf("snapshot digest %s, want %s", got, tc.want)
			}
		})
	}
}

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
	srv, hs, fed := testServer(t, floatCtrl(2), 2)
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
	srv2, hs2, _ := testServer(t, floatCtrl(2), 2)
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

// TestRestoreHoldoutGaugeFollowsStatus: a snapshot whose holdout accuracy
// is 0 while its registry section holds a non-zero dist_holdout_acc
// restores into a server whose /v1/status and /v1/metrics agree.
func TestRestoreHoldoutGaugeFollowsStatus(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	runRounds(t, []*Client{registeredClient(t, hs, fed, 0), registeredClient(t, hs, fed, 1)}, 1)
	blob, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	zeroed := reframe(t, blob, func(st *serverState) {
		if st.HoldoutAcc == 0 || gaugeValue(t, st.Obs, "dist_holdout_acc") != st.HoldoutAcc {
			t.Fatalf("snapshot holdout %v; the test needs it non-zero and equal to the gauge", st.HoldoutAcc)
		}
		st.HoldoutAcc = 0
	})
	srv2, hs2, _ := testServer(t, nil, 2)
	if err := srv2.RestoreSnapshot(zeroed); err != nil {
		t.Fatal(err)
	}
	if got := srv2.HoldoutAccuracy(); got != 0 {
		t.Fatalf("restored holdout %v, want the snapshot's 0", got)
	}
	assertStatusMetricsAgree(t, hs2.URL)
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

// TestRestoreRefusesOrphanControllerSection: a FLOAT snapshot restored
// into a server whose controller keeps no state is a FormatError, as it is
// for the engines, not an agent silently dropped; and the refused restore
// leaves the server as NewServer built it.
func TestRestoreRefusesOrphanControllerSection(t *testing.T) {
	blob := bufferedSnapshot(t)
	srv, hs, _ := testServer(t, fl.NoOpController{}, 3)
	fresh := getSnapshot(t, hs.URL)
	var fe *checkpoint.FormatError
	if err := srv.RestoreSnapshot(blob); !errors.As(err, &fe) {
		t.Fatalf("got %v, want a FormatError", err)
	}
	if after := getSnapshot(t, hs.URL); !bytes.Equal(fresh, after) {
		t.Fatal("the refused restore changed the server")
	}
}

// bufferedSnapshot is a drained FLOAT server's snapshot with two
// aggregations behind it and two deltas buffered (AggregateK 3, eight
// updates).
func bufferedSnapshot(t testing.TB) []byte {
	t.Helper()
	srv, hs, fed := testServer(t, floatCtrl(2), 3)
	for i := 0; i < 8; i++ {
		if ok, err := registeredClient(t, hs, fed, i).Step(context.Background(), 0); err != nil || !ok {
			t.Fatalf("Step: ok=%v err=%v", ok, err)
		}
	}
	srv.SetDraining(true)
	blob := getSnapshot(t, hs.URL)
	reframe(t, blob, func(st *serverState) {
		if st.Round != 2 || len(st.Deltas) != 2 || len(st.Controller) == 0 {
			t.Fatalf("snapshot has round %d, %d deltas, %dB controller; the tests need 2, 2 and some", st.Round, len(st.Deltas), len(st.Controller))
		}
	})
	return blob
}

// reframe decodes a server snapshot, lets edit change its state, and frames
// the result again with a valid checksum. The registry section goes back
// through a registry restored from it, which writes the same bytes.
func reframe(t testing.TB, blob []byte, edit func(st *serverState)) []byte {
	t.Helper()
	payload, err := checkpoint.DecodeBytes(blob, ServerSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	st, err := decodeServerState(payload)
	if err != nil {
		t.Fatal(err)
	}
	edit(st)
	metrics := obs.NewRegistry()
	if err := metrics.RestoreSnapshot(st.Obs); err != nil {
		t.Fatal(err)
	}
	e := checkpoint.NewEnc(len(payload))
	if err := st.appendTo(e, rawSection(st.Controller), metrics, rawSection(st.Timeline)); err != nil {
		t.Fatal(err)
	}
	out, err := checkpoint.EncodeBytes(ServerSnapshotKind, e.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// rawSection hands a decoded section back to appendTo as it was read.
type rawSection []byte

func (r rawSection) CheckpointState() ([]byte, error) { return r, nil }
func (rawSection) RestoreCheckpoint([]byte) error     { return nil }

type namedBlob struct {
	name string
	blob []byte
}

// poisoned is bufferedSnapshot's blob carrying, one case at a time, state
// the live server refuses: a non-finite buffered delta, a weight outside
// the [1, maxUpdateSamples] clamp, a non-finite model parameter.
func poisoned(t testing.TB, blob []byte) []namedBlob {
	t.Helper()
	var out []namedBlob
	for _, c := range []struct {
		name string
		edit func(st *serverState)
	}{
		{"nan-delta", func(st *serverState) { st.Deltas[0][1] = math.NaN() }},
		{"inf-delta", func(st *serverState) { st.Deltas[1][0] = math.Inf(-1) }},
		{"negative-weight", func(st *serverState) { st.Weights[0] = -5 }},
		{"zero-weight", func(st *serverState) { st.Weights[1] = 0 }},
		{"nan-weight", func(st *serverState) { st.Weights[0] = math.NaN() }},
		{"weight-past-clamp", func(st *serverState) { st.Weights[1] = 2 * maxUpdateSamples }},
		{"nan-model", func(st *serverState) {
			// nn's binary form: the scalar count, then little-endian float64s.
			st.Model = append([]byte(nil), st.Model...)
			binary.LittleEndian.PutUint64(st.Model[8:], math.Float64bits(math.NaN()))
		}},
	} {
		out = append(out, namedBlob{c.name, reframe(t, blob, c.edit)})
	}
	return out
}

// TestSnapshotRestoreRejectsNonFiniteState: a snapshot carrying what the
// live server would have refused is a FormatError found before the first
// mutation. Such a snapshot used to restore cleanly, and the next
// aggregation wrote NaN into the global model.
func TestSnapshotRestoreRejectsNonFiniteState(t *testing.T) {
	for _, c := range poisoned(t, bufferedSnapshot(t)) {
		srv, hs, _ := testServer(t, floatCtrl(2), 3)
		before := getSnapshot(t, hs.URL)
		var fe *checkpoint.FormatError
		if err := srv.RestoreSnapshot(c.blob); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want a FormatError", c.name, err)
		}
		if !bytes.Equal(before, getSnapshot(t, hs.URL)) {
			t.Errorf("%s: rejected restore changed the server snapshot", c.name)
		}
	}
}

// FuzzServerRestore fuzzes RestoreSnapshot's decoder and validation, not
// the checksum: the seeds are bufferedSnapshot's payload and its poisoned
// variants, and every mutated payload is re-framed with a correct length
// and SHA-256 before it is restored into a fresh server. The contract: no
// panic; success or one of the checkpoint package's typed errors; memory
// bounded by a small multiple of the payload; and a restore that succeeds
// leaves a finite model and only finite buffered deltas with weights in
// [1, maxUpdateSamples].
func FuzzServerRestore(f *testing.F) {
	blob := bufferedSnapshot(f)
	for _, c := range append(poisoned(f, blob), namedBlob{"drained", blob}) {
		payload, err := checkpoint.DecodeBytes(c.blob, ServerSnapshotKind)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(payload)
	}
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 1, Alpha: 0.1, Seed: 5})
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		srv, err := NewServer(ServerConfig{
			Spec:       TrainSpec{Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes},
			AggregateK: 3,
			Controller: floatCtrl(2),
			Clock:      NewFakeClock(time.Unix(0, 0)),
		})
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		frame, err := checkpoint.EncodeBytes(ServerSnapshotKind, payload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = srv.RestoreSnapshot(frame)
		runtime.ReadMemStats(&after)
		if err != nil && !statefultests.Typed(err) {
			t.Fatalf("untyped restore error: %v", err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(payload)+1<<20); grew > bound {
			t.Fatalf("restoring a %d-byte payload allocated %d bytes (bound %d)", len(payload), grew, bound)
		}
		if err != nil {
			return
		}
		srv.mu.Lock()
		defer srv.mu.Unlock()
		if !fl.IsFinite(srv.global.Parameters()) {
			t.Fatal("restored a non-finite global model")
		}
		for i, d := range srv.deltas {
			if w := srv.weights[i]; !fl.IsFinite(d) || !(w >= 1 && w <= maxUpdateSamples) {
				t.Fatalf("restored buffered delta %d: finite=%v weight %v", i, fl.IsFinite(d), w)
			}
		}
	})
}

// TestSnapshotRestoreRejectsWrongLengthDelta: a well-framed snapshot whose
// buffered delta has the wrong length is a CompatError found before the
// first mutation — status, model bytes and controller state stay what
// NewServer built (the check used to run after the controller, the model,
// the round and the registry had been replaced).
func TestSnapshotRestoreRejectsWrongLengthDelta(t *testing.T) {
	bad := reframe(t, bufferedSnapshot(t), func(st *serverState) { st.Deltas[1] = st.Deltas[1][:len(st.Deltas[1])-1] })

	ctrl2 := floatCtrl(2)
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
			srv, hs, fed := testServer(t, floatCtrl(2), 3)
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

// SetDraining toggles drain mode as POST /v1/drain does: while draining, no
// new tasks are handed out.
func (s *Server) SetDraining(on bool) {
	s.mu.Lock()
	s.draining = on
	s.mu.Unlock()
}

// Draining reports whether drain mode is on.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}
