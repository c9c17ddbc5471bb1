package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/fl"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/tensor"
)

func testServer(t testing.TB, ctrl fl.Controller, k int) (*Server, *httptest.Server, *data.Federation) {
	t.Helper()
	srv, hs, fed := testServerConfig(t, ServerConfig{AggregateK: k, Controller: ctrl})
	return srv, hs, fed
}

// testServerConfig builds a server from a partial config, filling in the
// spec and holdout from a fresh 8-client federation.
func testServerConfig(t testing.TB, cfg ServerConfig) (*Server, *httptest.Server, *data.Federation) {
	t.Helper()
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 8, Alpha: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	cfg.Spec = TrainSpec{
		Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
		Epochs: 2, BatchSize: 16, LR: 0.1,
	}
	cfg.Holdout = fed.GlobalTest[:200]
	cfg.Seed = 6
	srv, err := NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(hs.Close)
	return srv, hs, fed
}

// clientNameSeq makes every test client's name unique: registration is
// idempotent per name, so tests that want distinct identities must not
// reuse one.
var clientNameSeq int64

func nextClientName() string {
	return fmt.Sprintf("c-%d", atomic.AddInt64(&clientNameSeq, 1))
}

func registeredClient(t testing.TB, hs *httptest.Server, fed *data.Federation, i int) *Client {
	t.Helper()
	c := NewClient(hs.URL, nextClientName(), fed.Train[i], fed.LocalTest[i], int64(100+i))
	if err := c.Register(context.Background(), 15, 3000); err != nil {
		t.Fatal(err)
	}
	return c
}

func fullReport() ResourceReport {
	return ResourceReport{CPUFrac: 0.8, MemFrac: 0.8, NetFrac: 1, BandwidthMbps: 50, Battery: 1}
}

func TestNewServerValidation(t *testing.T) {
	if _, err := NewServer(ServerConfig{}); err == nil {
		t.Fatal("accepted empty TrainSpec")
	}
	if _, err := NewServer(ServerConfig{Spec: TrainSpec{Arch: "nope", InDim: 4, Classes: 2}}); err == nil {
		t.Fatal("accepted unknown arch")
	}
}

// NewServer's defaults test `<= 0`, which NaN passes, and LR and the
// deadline and lease are sent to clients as JSON, which has no NaN or
// ±Inf: each field must be rejected when it is not finite.
func TestNewServerRejectsNonFinite(t *testing.T) {
	for _, tc := range []struct {
		name string
		set  func(*ServerConfig, float64)
	}{
		{"Spec.LR", func(c *ServerConfig, v float64) { c.Spec.LR = v }},
		{"DeadlineSeconds", func(c *ServerConfig, v float64) { c.DeadlineSeconds = v }},
		{"LeaseSeconds", func(c *ServerConfig, v float64) { c.LeaseSeconds = v }},
		{"RoundSeconds", func(c *ServerConfig, v float64) { c.RoundSeconds = v }},
	} {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			cfg := ServerConfig{Spec: TrainSpec{Arch: "resnet18", InDim: 4, Classes: 2}}
			tc.set(&cfg, v)
			srv, err := NewServer(cfg)
			if err == nil {
				srv.Close()
				t.Errorf("NewServer accepted %s = %v", tc.name, v)
			}
		}
	}
}

func TestRegisterAssignsIDs(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	a := registeredClient(t, hs, fed, 0)
	b := registeredClient(t, hs, fed, 1)
	if a.ID() == b.ID() {
		t.Fatal("clients with distinct names share an ID")
	}
	if a.spec.Arch != "resnet18" || a.spec.QuantBits != 16 {
		t.Fatalf("spec not propagated: %+v", a.spec)
	}
}

func TestRegisterIdempotentPerName(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	name := nextClientName()
	a := NewClient(hs.URL, name, fed.Train[0], fed.LocalTest[0], 1)
	if err := a.Register(context.Background(), 15, 3000); err != nil {
		t.Fatal(err)
	}
	// The same client retries registration (its first response was lost):
	// it must reclaim the same identity, not leak a duplicate clientInfo.
	b := NewClient(hs.URL, name, fed.Train[0], fed.LocalTest[0], 2)
	if err := b.Register(context.Background(), 15, 3000); err != nil {
		t.Fatal(err)
	}
	if a.ID() != b.ID() {
		t.Fatalf("re-register under name %q changed ID: %d -> %d", name, a.ID(), b.ID())
	}
	st, err := b.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Registered != 1 {
		t.Fatalf("re-register leaked a clientInfo: %d registered", st.Registered)
	}
	// Anonymous clients stay non-idempotent: no name to key on.
	anonA := NewClient(hs.URL, "", fed.Train[0], fed.LocalTest[0], 3)
	anonB := NewClient(hs.URL, "", fed.Train[0], fed.LocalTest[0], 4)
	if err := anonA.Register(context.Background(), 15, 3000); err != nil {
		t.Fatal(err)
	}
	if err := anonB.Register(context.Background(), 15, 3000); err != nil {
		t.Fatal(err)
	}
	if anonA.ID() == anonB.ID() {
		t.Fatal("anonymous clients share an ID")
	}
	_ = srv
}

func TestEndToEndTrainingImprovesAccuracy(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 4)
	ctx := context.Background()
	clients := make([]*Client, 4)
	for i := range clients {
		clients[i] = registeredClient(t, hs, fed, i)
	}
	st, err := clients[0].Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Registered != 4 || st.Round != 0 {
		t.Fatalf("status wrong: %+v", st)
	}

	const rounds = 8
	for round := 0; round < rounds; round++ {
		for _, c := range clients {
			ok, err := c.Step(ctx, round)
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				t.Fatalf("client %d not accepted in round %d", c.ID(), round)
			}
		}
	}
	if srv.Round() != rounds {
		t.Fatalf("server at round %d, want %d", srv.Round(), rounds)
	}
	acc := srv.HoldoutAccuracy()
	chance := 1.0 / float64(fed.Profile.Classes)
	if acc < chance*1.5 {
		t.Fatalf("distributed training did not learn: holdout %.3f (chance %.3f)", acc, chance)
	}
}

func TestFloatControllerAssignsTechniques(t *testing.T) {
	float := core.New(core.Config{
		Agent:           rl.Config{Seed: 7, TotalRounds: 10},
		BatchSize:       16,
		Epochs:          2,
		ClientsPerRound: 4,
	})
	srv, hs, fed := testServer(t, float, 3)
	ctx := context.Background()
	clients := make([]*Client, 3)
	for i := range clients {
		clients[i] = registeredClient(t, hs, fed, i)
		// Report squeezed resources so FLOAT's decisions matter.
		clients[i].Report = func(round int) ResourceReport {
			return ResourceReport{CPUFrac: 0.2, MemFrac: 0.4, NetFrac: 0.3, BandwidthMbps: 8, Battery: 0.6}
		}
	}
	for round := 0; round < 5; round++ {
		for _, c := range clients {
			if _, err := c.Step(ctx, round); err != nil {
				t.Fatal(err)
			}
		}
	}
	if float.Agent().Updates() == 0 {
		t.Fatal("FLOAT agent received no feedback through the HTTP path")
	}
	if srv.Round() != 5 {
		t.Fatalf("server at round %d, want 5", srv.Round())
	}
}

func TestStaleUpdateRejected(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 1)
	ctx := context.Background()
	slow := registeredClient(t, hs, fed, 0)
	fast := registeredClient(t, hs, fed, 1)

	// Slow client takes a task but does not upload yet.
	var task TaskResponse
	status, err := slow.postStatus(ctx, "/v1/task", TaskRequest{ClientID: slow.ID(),
		Resources: fullReport()}, &task)
	if err != nil || status != http.StatusOK {
		t.Fatalf("task fetch: %d %v", status, err)
	}
	// Fast client completes the round (AggregateK=1 advances immediately).
	if ok, err := fast.Step(ctx, 0); err != nil || !ok {
		t.Fatalf("fast client step: %v %v", ok, err)
	}
	if srv.Round() != 1 {
		t.Fatalf("round should have advanced, at %d", srv.Round())
	}
	// Slow client now uploads for round 0 — must be rejected as stale, and
	// the client records deadline human feedback.
	if ok, err := slow.Step(ctx, 0); err != nil {
		t.Fatal(err)
	} else if ok {
		// Step re-fetched a fresh task for round 1, which is legal; but the
		// original task was invalidated by aggregateLocked. Either way the
		// slow client must not have corrupted round accounting.
		_ = ok
	}
	if srv.Round() < 1 {
		t.Fatal("round regressed")
	}
}

func TestUpdateValidation(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)

	post := func(v interface{}, path string) int {
		body, _ := json.Marshal(v)
		if u, ok := v.(UpdateRequest); ok {
			body = updateFrame(t, u)
		}
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		return resp.StatusCode
	}
	// Unknown client.
	if code := post(UpdateRequest{ClientID: 99, Round: 0}, "/v1/update"); code != http.StatusNotFound {
		t.Fatalf("unknown client update returned %d", code)
	}
	if code := post(TaskRequest{ClientID: 99}, "/v1/task"); code != http.StatusNotFound {
		t.Fatalf("unknown client task returned %d", code)
	}
	// Garbage delta from a client that holds a task.
	status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatal(err)
	}
	if code := post(UpdateRequest{ClientID: c.ID(), Round: 0, Delta: []byte{1, 2}}, "/v1/update"); code != http.StatusBadRequest {
		t.Fatalf("garbage delta returned %d", code)
	}
	// GET on a POST-only endpoint.
	resp, err := http.Get(hs.URL + "/v1/task")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("GET /v1/task returned %d", resp.StatusCode)
	}
}

func TestOverProvisioningCap(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 4)
	ctx := context.Background()
	_ = srv
	// MaxOutstanding defaults to 8; the 9th concurrent task request must
	// get 204.
	var clients []*Client
	for i := 0; i < 8; i++ {
		c := registeredClient(t, hs, fed, i%8)
		status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
			Resources: fullReport()}, &TaskResponse{})
		if err != nil || status != http.StatusOK {
			t.Fatalf("client %d task: %d %v", i, status, err)
		}
		clients = append(clients, c)
	}
	extra := registeredClient(t, hs, fed, 0)
	status, err := extra.postStatus(ctx, "/v1/task", TaskRequest{ClientID: extra.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil {
		t.Fatal(err)
	}
	if status != http.StatusNoContent {
		t.Fatalf("over-provisioned task request returned %d, want 204", status)
	}
	// Idempotent re-request by a holder still succeeds.
	status, err = clients[0].postStatus(ctx, "/v1/task", TaskRequest{ClientID: clients[0].ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("idempotent re-request: %d %v", status, err)
	}
}

func TestStepWithoutRegister(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	c := NewClient(hs.URL, "x", fed.Train[0], fed.LocalTest[0], 1)
	if _, err := c.Step(context.Background(), 0); err == nil {
		t.Fatal("Step before Register should fail")
	}
}

func TestNonFiniteUpdateRejected(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)
	// Hold a valid task first.
	status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatal(err)
	}
	// Craft a correctly-sized delta whose scale field is Inf: the decoded
	// values become non-finite and the server must reject them.
	delta := tensor.NewVector(paramCount(t, c))
	delta.Fill(1)
	blob, err := opt.CompressUpdate(delta, 16)
	if err != nil {
		t.Fatal(err)
	}
	// Overwrite the scale with +Inf.
	binary.LittleEndian.PutUint64(blob[4:12], math.Float64bits(math.Inf(1)))
	status, err = c.postStatus(ctx, "/v1/update", UpdateRequest{
		ClientID: c.ID(), Round: 0, Technique: "quant16", Delta: blob, Samples: 10,
	}, nil)
	if err == nil && status == http.StatusOK {
		t.Fatal("server accepted a non-finite update")
	}
	if srv.Round() != 0 {
		t.Fatal("poisoned update advanced the round")
	}
}

// paramCount infers the global model's parameter count from the client's
// registered spec.
func paramCount(t testing.TB, c *Client) int {
	t.Helper()
	if c.model == nil {
		t.Fatal("client not registered")
	}
	return c.model.NumParams()
}

func TestSanitizeSelfReports(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)

	// clampFinite: the orDefault replacement must not wave NaN/Inf through.
	for _, tc := range []struct {
		in, want float64
	}{
		{nan, 10}, {inf, 10}, {math.Inf(-1), 10}, {-3, 10}, {0, 10},
		{1e300, 1e4}, {0.01, 0.1}, {15, 15},
	} {
		if got := clampFinite(tc.in, 0.1, 1e4, 10); got != tc.want {
			t.Errorf("clampFinite(%v) = %v, want %v", tc.in, got, tc.want)
		}
	}

	// ResourceReport.sanitized clamps every field: absurd-but-finite
	// values clamp to the range; non-finite garbage is rejected to the low
	// bound (an Inf bandwidth claim earns no credit).
	r := ResourceReport{
		CPUFrac: nan, MemFrac: 7, NetFrac: -2,
		BandwidthMbps: inf, Battery: 1e10, DeadlineDiff: nan,
	}.sanitized()
	want := ResourceReport{CPUFrac: 0, MemFrac: 1, NetFrac: 0,
		BandwidthMbps: 0, Battery: 1, DeadlineDiff: 0}
	if r != want {
		t.Fatalf("sanitized report %+v, want %+v", r, want)
	}
	if got := clampReward(inf); got != 0 {
		t.Fatalf("clampReward(+Inf) = %v", got)
	}
	if got := clampReward(-9); got != -1 {
		t.Fatalf("clampReward(-9) = %v", got)
	}
}

// TestMalformedReportsDoNotPoisonController drives absurd self-reports
// through the real HTTP path and asserts the Controller only ever sees
// clamped values.
func TestMalformedReportsDoNotPoisonController(t *testing.T) {
	rec := &recordingController{}
	_, hs, fed := testServer(t, rec, 4)
	ctx := context.Background()

	c := registeredClient(t, hs, fed, 0)
	status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: ResourceReport{CPUFrac: 1e9, MemFrac: -4, NetFrac: 0.5,
			BandwidthMbps: 1e300, Battery: 40, DeadlineDiff: -7},
	}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	res := rec.lastDecide()
	if res.CPUFrac != 1 || res.MemFrac != 0 || res.BandwidthMbps != 1e5 || res.Battery != 1 {
		t.Fatalf("controller saw unsanitized resources: %+v", res)
	}

	// Absurd registration capability is clamped before it reaches the
	// controller's device shim.
	big := NewClient(hs.URL, nextClientName(), fed.Train[1], fed.LocalTest[1], 9)
	if err := big.Register(ctx, 1e300, -5); err != nil {
		t.Fatal(err)
	}
	status, err = big.postStatus(ctx, "/v1/task", TaskRequest{ClientID: big.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	dev := rec.lastDevice()
	if dev.Compute.GFLOPS != 1e4 || dev.Compute.MemoryMB != 2000 {
		t.Fatalf("controller saw unsanitized capability: %+v", dev.Compute)
	}
}

// TestSamplesClaimIsClamped: the sample count is the aggregation weight and
// is self-reported, so it is clamped like every other self-reported field.
// Two clients upload opposite deltas; the one claiming 10¹⁸ samples weighs
// exactly as much as the one claiming the cap, and the mean cancels — an
// unclamped weight would move every parameter by the liar's delta.
func TestSamplesClaimIsClamped(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	ctx := context.Background()
	before := srv.global.Parameters().Clone()
	for i, samples := range []int{1e18, maxUpdateSamples} {
		c := registeredClient(t, hs, fed, i)
		status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
			Resources: fullReport()}, &TaskResponse{})
		if err != nil || status != http.StatusOK {
			t.Fatalf("task: %d %v", status, err)
		}
		delta := tensor.NewVector(paramCount(t, c))
		delta.Fill(float64(1 - 2*i))
		blob, err := opt.CompressUpdate(delta, 16)
		if err != nil {
			t.Fatal(err)
		}
		status, err = c.postStatus(ctx, "/v1/update", UpdateRequest{
			ClientID: c.ID(), Round: 0, Technique: "quant16", Delta: blob, Samples: samples,
		}, nil)
		if err != nil || status != http.StatusOK {
			t.Fatalf("update: %d %v", status, err)
		}
	}
	if srv.Round() != 1 {
		t.Fatalf("round %d after two updates with k=2, want 1", srv.Round())
	}
	for i, x := range srv.global.Parameters() {
		if math.Abs(x-before[i]) > 1e-9 {
			t.Fatalf("parameter %d moved by %v: the 10¹⁸-sample claim owned the aggregate", i, x-before[i])
		}
	}
}

// TestOversizedBodyRejected: a request body beyond the bound computed from
// the model size gets 413 on every POST endpoint and mutates nothing — the
// round, the buffer and the controller are as they were.
func TestOversizedBodyRejected(t *testing.T) {
	rec := &recordingController{}
	srv, hs, fed := testServer(t, rec, 2)
	ctx := context.Background()
	c := registeredClient(t, hs, fed, 0)
	status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	limit := maxBodyBytes(paramCount(t, c))

	// The largest legitimate update — every parameter a 32-bit worst case —
	// fits under the bound, so the bound cannot reject an honest client.
	worst := tensor.NewVector(paramCount(t, c))
	for i := range worst {
		worst[i] = float64(1 - 2*(i%2))
	}
	blob, err := opt.CompressUpdate(worst, 32)
	if err != nil {
		t.Fatal(err)
	}
	if body := updateFrame(t, UpdateRequest{ClientID: c.ID(), Technique: "quant16", Delta: blob, Samples: 1e6,
		TrainSecs: 123456.789, AccImprove: -0.123456789}); int64(len(body)) > limit {
		t.Fatalf("a worst-case honest update is %d bytes, over the %d-byte bound", len(body), limit)
	}
	// So does the task response, which the client bounds by the same number.
	if model, _ := srv.global.MarshalBinary(); int64(len(model))+1024 > limit {
		t.Fatalf("the model is %d bytes: a task frame does not fit the %d-byte bound", len(model), limit)
	}

	snap := getSnapshot(t, hs.URL)
	decides := len(rec.decides)
	huge := bytes.Repeat([]byte("A"), int(limit))
	for _, path := range []string{"/v1/register", "/v1/task", "/v1/update"} {
		// A JSON string one quote short of ever ending; for /v1/update, a
		// well-formed frame whose blob runs past the bound.
		body := append([]byte(fmt.Sprintf(`{"client_id":%d,"name":"`, c.ID())), huge...)
		if path == "/v1/update" {
			body = updateFrame(t, UpdateRequest{ClientID: c.ID(), Delta: huge})
		}
		resp, err := http.Post(hs.URL+path, "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("%s: oversized body returned %d, want 413", path, resp.StatusCode)
		}
	}
	if after := getSnapshot(t, hs.URL); !bytes.Equal(snap, after) {
		t.Error("rejected bodies changed the server snapshot")
	}
	if srv.Round() != 0 || len(rec.decides) != decides || len(rec.outcomes) != 0 {
		t.Errorf("rejected bodies reached the round (%d) or the controller (%d decides, %d feedbacks)",
			srv.Round(), len(rec.decides)-decides, len(rec.outcomes))
	}
}
