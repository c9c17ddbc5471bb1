package dist

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/tensor"
)

// updateFrame builds the body of a POST /v1/update the way the client does.
func updateFrame(t testing.TB, u UpdateRequest) []byte {
	t.Helper()
	body, err := appendFrame(nil, u, u.Delta)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// postUpdate posts a raw /v1/update body and returns the status and the
// response text.
func postUpdate(t testing.TB, url string, body []byte) (int, string) {
	t.Helper()
	resp, err := http.Post(url+"/v1/update", "application/octet-stream", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/update: %v (a handler panic closes the connection)", err)
	}
	defer resp.Body.Close()
	var msg bytes.Buffer
	_, _ = msg.ReadFrom(resp.Body)
	return resp.StatusCode, msg.String()
}

func codecHeader(count uint32) []byte {
	blob := make([]byte, 13)
	binary.LittleEndian.PutUint32(blob[0:4], count)
	binary.LittleEndian.PutUint64(blob[4:12], math.Float64bits(1))
	blob[12] = 16
	return blob
}

// zeroRunPastInt63 is a 25-byte delta declaring n elements whose first token
// is a zero run of 2^63 — negative once it is an int.
func zeroRunPastInt63(n int) []byte {
	blob := append(codecHeader(uint32(n)), 0)
	blob = binary.AppendUvarint(blob, 1<<63)
	return append(blob, 3)
}

// hugeDeclaredLen is an 18-byte delta whose header declares 2^24 elements —
// the most the codec will size a vector for, 128 MiB of float64.
func hugeDeclaredLen() []byte {
	blob := append(codecHeader(opt.MaxDecodedLen), 0)
	return binary.AppendUvarint(blob, opt.MaxDecodedLen)
}

func TestSplitFrame(t *testing.T) {
	meta := UpdateRequest{ClientID: 3, Round: 7, Technique: "quant8", Samples: 40, AccImprove: 0.25}
	valid, err := appendFrame([]byte("kept"), meta, []byte{9, 8, 7})
	if err != nil {
		t.Fatal(err)
	}
	if string(valid[:4]) != "kept" {
		t.Fatal("appendFrame overwrote the bytes it was handed")
	}
	valid = valid[4:]
	metaLen := int(binary.LittleEndian.Uint32(valid))
	notJSON := append(binary.LittleEndian.AppendUint32(nil, 4), "nope"...)

	for _, tc := range []struct {
		name     string
		body     []byte
		wantBlob []byte
		wantErr  bool
	}{
		{name: "empty body", body: nil, wantErr: true},
		{name: "shorter than the length prefix", body: valid[:3], wantErr: true},
		{name: "cut inside the meta", body: valid[:frameHeaderLen+metaLen-1], wantErr: true},
		{name: "meta length past the end", body: binary.LittleEndian.AppendUint32(nil, math.MaxUint32), wantErr: true},
		{name: "meta not JSON", body: notJSON, wantErr: true},
		{name: "empty blob", body: valid[:frameHeaderLen+metaLen], wantBlob: []byte{}},
		{name: "cut inside the blob", body: valid[:len(valid)-1], wantBlob: []byte{9, 8}},
		{name: "valid", body: valid, wantBlob: []byte{9, 8, 7}},
	} {
		var got UpdateRequest
		blob, err := splitFrame(tc.body, &got)
		if tc.wantErr {
			if err == nil {
				t.Errorf("%s: accepted", tc.name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if !bytes.Equal(blob, tc.wantBlob) {
			t.Errorf("%s: blob %v, want %v", tc.name, blob, tc.wantBlob)
		}
		if !reflect.DeepEqual(got, meta) {
			t.Errorf("%s: meta %+v, want %+v", tc.name, got, meta)
		}
	}
}

// TestHostileDeltasRejected: two deltas a few bytes long, each of which the
// parent commit let reach the decoder under s.mu — one panicked it, the
// other made it allocate 128 MiB. Both are a 400 that changes nothing.
func TestHostileDeltasRejected(t *testing.T) {
	rec := &recordingController{}
	srv, hs, fed := testServer(t, rec, 2)
	c := registeredClient(t, hs, fed, 0)
	status, err := c.postStatus(context.Background(), "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	snap := getSnapshot(t, hs.URL)

	body := updateFrame(t, UpdateRequest{ClientID: c.ID(), Delta: zeroRunPastInt63(paramCount(t, c))})
	if status, msg := postUpdate(t, hs.URL, body); status != http.StatusBadRequest {
		t.Errorf("zero run of 2^63: status %d (%s), want 400", status, msg)
	}

	// The oversized header is driven through the handler directly, so that
	// what the process allocates meanwhile is the handler's doing.
	body = updateFrame(t, UpdateRequest{ClientID: c.ID(), Delta: hugeDeclaredLen()})
	handler := srv.Handler()
	req := httptest.NewRequest(http.MethodPost, "/v1/update", bytes.NewReader(body))
	w := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	handler.ServeHTTP(w, req)
	runtime.ReadMemStats(&after)
	if w.Code != http.StatusBadRequest || !strings.Contains(w.Body.String(), "delta size mismatch") {
		t.Errorf("header declaring 2^24 elements: status %d (%s), want 400 delta size mismatch", w.Code, w.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
		t.Errorf("header declaring 2^24 elements made the handler allocate %d bytes", grew)
	}

	if !bytes.Equal(snap, getSnapshot(t, hs.URL)) {
		t.Error("rejected deltas changed the server snapshot")
	}
	if srv.Round() != 0 || len(rec.decides) != 1 || len(rec.outcomes) != 0 {
		t.Errorf("rejected deltas reached the round (%d) or the controller (%d decides, %d feedbacks)",
			srv.Round(), len(rec.decides), len(rec.outcomes))
	}
}

// TestUpdateStatusPrecedence: an unknown client is a 404 and a stale round
// a 409 whatever the delta looks like; only a current task holder is told
// its delta is bad.
func TestUpdateStatusPrecedence(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	c := registeredClient(t, hs, fed, 0)
	garbage := []byte{1, 2}
	for _, tc := range []struct {
		name string
		req  UpdateRequest
		want int
	}{
		{"unknown client, bad delta", UpdateRequest{ClientID: 99, Delta: garbage}, http.StatusNotFound},
		{"no task held, bad delta", UpdateRequest{ClientID: c.ID(), Delta: garbage}, http.StatusConflict},
		{"wrong round, bad delta", UpdateRequest{ClientID: c.ID(), Round: 5, Delta: garbage}, http.StatusConflict},
	} {
		if status, msg := postUpdate(t, hs.URL, updateFrame(t, tc.req)); status != tc.want {
			t.Errorf("%s: status %d (%s), want %d", tc.name, status, msg, tc.want)
		}
	}
	status, err := c.postStatus(context.Background(), "/v1/task", TaskRequest{ClientID: c.ID(),
		Resources: fullReport()}, &TaskResponse{})
	if err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	if status, msg := postUpdate(t, hs.URL, updateFrame(t, UpdateRequest{ClientID: c.ID(), Delta: garbage})); status != http.StatusBadRequest {
		t.Errorf("task held, bad delta: status %d (%s), want 400", status, msg)
	}
}

// blockedWriter is a ResponseWriter whose first body Write parks until
// release is closed: a client that has stopped reading its response.
type blockedWriter struct {
	header  http.Header
	status  int
	written int
	once    sync.Once
	entered chan struct{}
	release chan struct{}
}

func newBlockedWriter() *blockedWriter {
	return &blockedWriter{header: make(http.Header), entered: make(chan struct{}), release: make(chan struct{})}
}

func (w *blockedWriter) Header() http.Header    { return w.header }
func (w *blockedWriter) WriteHeader(status int) { w.status = status }
func (w *blockedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.entered) })
	<-w.release
	w.written += len(p)
	return len(p), nil
}

// TestTaskWriteDoesNotHoldLock: one client that stops reading its task must
// not stall the server — the parent commit wrote the body under s.mu, so
// every handler, lease expiry and the round timer queued behind that
// client's socket.
func TestTaskWriteDoesNotHoldLock(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 4)
	slow := registeredClient(t, hs, fed, 0)
	other := registeredClient(t, hs, fed, 1)
	handler := srv.Handler()
	taskRequest := func(c *Client) *http.Request {
		body, _ := json.Marshal(TaskRequest{ClientID: c.ID(), Resources: fullReport()})
		return httptest.NewRequest(http.MethodPost, "/v1/task", bytes.NewReader(body))
	}

	bw := newBlockedWriter()
	served := make(chan struct{})
	go func() {
		defer close(served)
		handler.ServeHTTP(bw, taskRequest(slow))
	}()
	select {
	case <-bw.entered:
	case <-time.After(10 * time.Second):
		t.Fatal("the task handler never wrote its body")
	}

	// While that write is parked, everything else the server does goes on.
	unblocked := make(chan string, 1)
	go func() {
		if srv.Round() != 0 {
			unblocked <- "Round() moved"
			return
		}
		w := httptest.NewRecorder()
		handler.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/v1/status", nil))
		if w.Code != http.StatusOK {
			unblocked <- "GET /v1/status returned " + strconv.Itoa(w.Code)
			return
		}
		w = httptest.NewRecorder()
		handler.ServeHTTP(w, taskRequest(other))
		if w.Code != http.StatusOK {
			unblocked <- "a second client's /v1/task returned " + strconv.Itoa(w.Code)
			return
		}
		unblocked <- ""
	}()
	select {
	case msg := <-unblocked:
		if msg != "" {
			t.Error(msg)
		}
	case <-time.After(10 * time.Second):
		t.Error("Round, /v1/status or a second /v1/task waited for a client that had stopped reading")
	}
	close(bw.release)
	<-served

	// The parked task was accounted for before its body was written, and
	// like any other.
	st, err := other.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if st.Outstanding != 2 || st.ActiveLeases != 2 {
		t.Errorf("after two tasks: %d outstanding, %d active leases, want 2 and 2", st.Outstanding, st.ActiveLeases)
	}
	model, _ := srv.global.MarshalBinary()
	if (bw.status != 0 && bw.status != http.StatusOK) || bw.written < len(model) {
		t.Errorf("the released writer saw status %d and %d bytes, want a %d-byte model behind its meta",
			bw.status, bw.written, len(model))
	}
}

// TestModelMarshalledOncePerVersion counts the distinct wire blobs the
// server builds: every task of a round, re-issues and snapshots included,
// is served from one, and whatever changes the model retires it.
func TestModelMarshalledOncePerVersion(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 2)
	ctx := context.Background()
	clients := []*Client{registeredClient(t, hs, fed, 0), registeredClient(t, hs, fed, 1)}

	// Blobs seen are kept alive, so a later allocation cannot reuse an
	// address and hide a second marshal.
	var seen [][]byte
	current := func() []byte {
		srv.mu.Lock()
		defer srv.mu.Unlock()
		return srv.modelBlob
	}
	note := func(task TaskResponse) {
		t.Helper()
		blob := current()
		if len(seen) == 0 || &seen[len(seen)-1][0] != &blob[0] {
			seen = append(seen, blob)
		}
		srv.mu.Lock()
		want, _ := srv.global.MarshalBinary()
		srv.mu.Unlock()
		if !bytes.Equal(task.Model, want) {
			t.Fatalf("round %d task carries a model that is not the server's current one", task.Round)
		}
	}
	fetch := func(c *Client) {
		t.Helper()
		var task TaskResponse
		status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(), Resources: fullReport()}, &task)
		if err != nil || status != http.StatusOK {
			t.Fatalf("task: %d %v", status, err)
		}
		note(task)
	}

	const rounds = 3
	for round := 0; round < rounds; round++ {
		for _, c := range clients {
			fetch(c)
			fetch(c) // idempotent re-issue
		}
		getSnapshot(t, hs.URL)
		for _, c := range clients {
			if ok, err := c.Step(ctx, round); err != nil || !ok {
				t.Fatalf("round %d step: %v %v", round, ok, err)
			}
		}
		if current() != nil {
			t.Fatalf("round %d: aggregation kept the previous model's blob", round)
		}
	}
	if len(seen) != rounds {
		t.Fatalf("%d model versions were marshalled %d times", rounds, len(seen))
	}

	// A restore changes the model too: the blob of the model it replaces
	// must not outlive it.
	snap := getSnapshot(t, hs.URL)
	fresh, freshHS, _ := testServer(t, nil, 2)
	c := registeredClient(t, freshHS, fed, 0)
	var task TaskResponse
	if status, err := c.postStatus(ctx, "/v1/task", TaskRequest{ClientID: c.ID(), Resources: fullReport()}, &task); err != nil || status != http.StatusOK {
		t.Fatalf("task: %d %v", status, err)
	}
	if err := fresh.RestoreSnapshot(snap); err != nil {
		t.Fatal(err)
	}
	restored := clients[0]
	restored.baseURL = freshHS.URL
	if status, err := restored.postStatus(ctx, "/v1/task", TaskRequest{ClientID: restored.ID(), Resources: fullReport()}, &task); err != nil || status != http.StatusOK {
		t.Fatalf("task after restore: %d %v", status, err)
	}
	want, _ := srv.global.MarshalBinary()
	if task.Round != rounds || !bytes.Equal(task.Model, want) {
		t.Fatal("after a restore the server still hands out the model it was built with")
	}
}

// TestTruncatedTaskFrameIsRetried: a task body cut in half still splits as
// a frame — the model blob is merely short — and must stay what a cut JSON
// body was: a decode failure, retried, and terminal only once the attempts
// run out.
func TestTruncatedTaskFrameIsRetried(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	c := registeredClient(t, hs, fed, 0)
	reg := obs.NewRegistry()
	c.Instrument(reg)
	c.Sleep = func(ctx context.Context, d time.Duration) error { return nil }
	c.Retry = RetryPolicy{MaxAttempts: 3}
	c.HTTPClient = &http.Client{Transport: NewFaultInjector(FaultConfig{Seed: 1, TruncateProb: 1}, nil, nil)}

	if ok, err := c.Step(context.Background(), 0); err == nil || ok {
		t.Fatalf("Step over a link that halves every body: %v %v, want an error", ok, err)
	}
	if n := reg.Counter(`dist_client_retries_total{cause="decode"}`).Value(); n != 3 {
		t.Fatalf("%d decode retries counted, want one per attempt (3)", n)
	}
	c.HTTPClient = &http.Client{}
	if ok, err := c.Step(context.Background(), 0); err != nil || !ok {
		t.Fatalf("Step once the link is whole: %v %v", ok, err)
	}
}

// TestClientBoundsResponseBody: the client reads no response past
// maxBodyBytes of its model (64 KiB before it has one), whether the server
// declares the excess or just keeps sending, and does not retry: a server
// that does this once will do it again.
func TestClientBoundsResponseBody(t *testing.T) {
	_, hs, fed := testServer(t, nil, 2)
	stop := make(chan struct{})
	var stopOnce sync.Once
	endless := func(w http.ResponseWriter, flush bool) {
		chunk := bytes.Repeat([]byte{'A'}, 32<<10)
		for {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := w.Write(chunk); err != nil {
				return
			}
			if flush {
				w.(http.Flusher).Flush()
			}
		}
	}
	hostile := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/declared/v1/task":
			w.Header().Set("Content-Length", "1073741824")
			endless(w, false)
		case "/endless/v1/task", "/endless/v1/register":
			endless(w, true)
		}
	}))
	t.Cleanup(hostile.Close)
	t.Cleanup(func() { stopOnce.Do(func() { close(stop) }) })

	for _, tc := range []struct {
		name       string
		prefix     string
		registered bool
	}{
		{"Content-Length over the bound", "/declared", true},
		{"a body that never ends", "/endless", true},
		{"a body that never ends, before Register", "/endless", false},
	} {
		c := NewClient(hs.URL, nextClientName(), fed.Train[0], fed.LocalTest[0], 11)
		limit := int64(64 << 10)
		if tc.registered {
			if err := c.Register(context.Background(), 15, 3000); err != nil {
				t.Fatal(err)
			}
			limit = maxBodyBytes(paramCount(t, c))
		}
		reg := obs.NewRegistry()
		c.Instrument(reg)
		c.Sleep = func(ctx context.Context, d time.Duration) error {
			t.Errorf("%s: the client backed off to retry", tc.name)
			return nil
		}
		c.baseURL = hostile.URL + tc.prefix

		sc := new(stepScratch)
		var err error
		if tc.registered {
			_, err = c.exchange(context.Background(), "/v1/task", TaskRequest{ClientID: c.ID()}, &TaskResponse{}, sc)
		} else {
			_, err = c.exchange(context.Background(), "/v1/register", RegisterRequest{Name: c.Name}, &RegisterResponse{}, sc)
		}
		if !errors.Is(err, ErrResponseTooLarge) {
			t.Errorf("%s: %v, want ErrResponseTooLarge", tc.name, err)
		}
		// One byte past the bound is how the excess is noticed; a doubling
		// buffer may hold up to twice that.
		if int64(cap(sc.resp)) > 2*(limit+1) {
			t.Errorf("%s: the response buffer grew to %d bytes against a bound of %d", tc.name, cap(sc.resp), limit)
		}
		for _, cause := range []string{"transport", "status5xx", "decode"} {
			if n := reg.Counter(`dist_client_retries_total{cause="` + cause + `"}`).Value(); n != 0 {
				t.Errorf("%s: %d %s retries", tc.name, n, cause)
			}
		}
		if n := reg.Counter("dist_client_retries_exhausted_total").Value(); n != 0 {
			t.Errorf("%s: retries exhausted %d times", tc.name, n)
		}
	}
}

// FuzzUpdateHandler posts arbitrary bytes to /v1/update on a real server
// whose one client holds a task: whatever arrives, the answer is one of the
// protocol's statuses, the handler does not panic, and anything but a 200
// leaves the server's snapshot byte for byte what it was.
func FuzzUpdateHandler(f *testing.F) {
	srv, err := NewServer(ServerConfig{
		Spec:         TrainSpec{Arch: "resnet18", InDim: 8, Classes: 2},
		AggregateK:   1 << 20, // the round never advances, so round-0 seeds stay current
		LeaseSeconds: 3600,
		Clock:        NewFakeClock(time.Unix(0, 0)),
		Seed:         6,
	})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(srv.Close)
	hs := httptest.NewServer(srv.Handler())
	f.Cleanup(hs.Close)
	c := NewClient(hs.URL, "fuzzed", nil, nil, 1)
	if err := c.Register(context.Background(), 15, 3000); err != nil {
		f.Fatal(err)
	}
	n := paramCount(f, c)
	// An accepted update is undone by restoring this, so accepted deltas do
	// not pile up in the buffer (and the snapshot) as the fuzzer runs.
	pristine := getSnapshot(f, hs.URL)
	takeTask := func(t testing.TB) {
		t.Helper()
		status, err := c.postStatus(context.Background(), "/v1/task", TaskRequest{ClientID: c.ID(),
			Resources: fullReport()}, &TaskResponse{})
		if err != nil || status != http.StatusOK {
			t.Fatalf("task: %d %v", status, err)
		}
	}
	takeTask(f)

	delta := tensor.NewVector(n)
	delta.Fill(0.5)
	good, err := opt.CompressUpdate(delta, 16)
	if err != nil {
		f.Fatal(err)
	}
	valid := updateFrame(f, UpdateRequest{ClientID: c.ID(), Technique: "quant16", Delta: good, Samples: 10})
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add(valid[:frameHeaderLen+3])
	f.Add(updateFrame(f, UpdateRequest{ClientID: c.ID(), Delta: zeroRunPastInt63(n)}))
	f.Add(updateFrame(f, UpdateRequest{ClientID: c.ID(), Delta: hugeDeclaredLen()}))
	f.Add(updateFrame(f, UpdateRequest{ClientID: c.ID() + 1, Delta: good}))
	f.Add(updateFrame(f, UpdateRequest{ClientID: c.ID(), Round: 1, Delta: good}))
	f.Add(updateFrame(f, UpdateRequest{ClientID: c.ID(), Delta: make([]byte, maxBodyBytes(n))}))

	f.Fuzz(func(t *testing.T, body []byte) {
		before := getSnapshot(t, hs.URL)
		status, msg := postUpdate(t, hs.URL, body)
		switch status {
		case http.StatusOK:
			if err := srv.RestoreSnapshot(pristine); err != nil {
				t.Fatal(err)
			}
			takeTask(t)
			return
		case http.StatusBadRequest, http.StatusNotFound, http.StatusConflict, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("status %d (%s)", status, msg)
		}
		if !bytes.Equal(before, getSnapshot(t, hs.URL)) {
			t.Fatalf("a %d changed the server snapshot", status)
		}
	})
}
