package dist

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"sync"
	"time"

	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
)

// defaultHTTPTimeout bounds a single request attempt so a dead server (or
// a dropped response) surfaces as a retryable error instead of hanging
// the client forever.
const defaultHTTPTimeout = 30 * time.Second

// RetryPolicy configures the client's handling of transient failures:
// transport errors, 5xx responses, and truncated response bodies. The
// protocol outcomes 204 (no slot) and 409 (stale round) and the remaining
// 4xx statuses are terminal and never retried.
type RetryPolicy struct {
	// MaxAttempts is the total number of tries per request (default 4).
	MaxAttempts int
	// BaseDelay is the first backoff interval (default 50ms); each retry
	// doubles it up to MaxDelay (default 2s), with equal jitter drawn from
	// the client's seeded retry RNG: delay/2 + U(0, delay/2).
	BaseDelay time.Duration
	MaxDelay  time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 4
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// Client is the device-side runtime: it registers, polls for tasks, trains
// on its private shard under the assigned technique, and uploads the
// codec-compressed delta. Transient server and network failures are
// retried with seeded exponential backoff; protocol outcomes are not.
type Client struct {
	baseURL string
	// HTTPClient performs the requests; tests wrap its Transport with a
	// FaultInjector. The default has a defaultHTTPTimeout per attempt.
	HTTPClient *http.Client

	Name  string
	Shard []nn.Sample
	// LocalTest measures the accuracy-improvement reward.
	LocalTest []nn.Sample
	// Report supplies the per-round resource self-report; nil reports a
	// fully available device.
	Report func(round int) ResourceReport
	// Retry tunes transient-failure handling; the zero value gets
	// defaults at use time.
	Retry RetryPolicy
	// Sleep waits out a backoff delay; nil uses ctx-aware real sleeping.
	// Tests inject a fake-clock sleeper so retries cost no wall time.
	Sleep func(ctx context.Context, d time.Duration) error

	id   int
	spec TrainSpec
	// rng seeds model init and per-round training, and TrainLocal's update
	// transform draws from it by block. retryRNG draws backoff jitter. They
	// are separate streams so injected faults never perturb the training
	// schedule.
	model    *nn.Model
	rng      *rngstate.Source
	retryRNG *rngstate.Source
	// lastDeadlineDiff carries human feedback into the next report.
	lastDeadlineDiff float64

	// Retry telemetry (nil until Instrument): retryable failures by
	// cause, plus requests that exhausted every attempt.
	obsRetryTransport *obs.Counter
	obsRetry5xx       *obs.Counter
	obsRetryDecode    *obs.Counter
	obsRetryExhausted *obs.Counter
}

// NewClient constructs a client runtime against a server base URL.
func NewClient(baseURL, name string, shard, localTest []nn.Sample, seed int64) *Client {
	return &Client{
		baseURL:    baseURL,
		HTTPClient: &http.Client{Timeout: defaultHTTPTimeout},
		Name:       name,
		Shard:      shard,
		LocalTest:  localTest,
		rng:        rngstate.New(seed),
		retryRNG:   rngstate.New(seed ^ 0x5deece66d),
	}
}

// Register announces the client and receives its training configuration.
// Registration is idempotent per name on the server, so a retry after a
// dropped response reclaims the same identity.
func (c *Client) Register(ctx context.Context, gflops, memoryMB float64) error {
	var resp RegisterResponse
	if err := c.post(ctx, "/v1/register", RegisterRequest{
		Name: c.Name, GFLOPS: gflops, MemoryMB: memoryMB,
	}, &resp); err != nil {
		return err
	}
	c.id = resp.ClientID
	c.spec = resp.Spec
	m, err := nn.NewModel(resp.Spec.Arch, resp.Spec.InDim, resp.Spec.Classes, c.rng)
	if err != nil {
		return err
	}
	c.model = m
	return nil
}

// ID returns the server-assigned client ID (valid after Register).
func (c *Client) ID() int { return c.id }

// stepScratch is every buffer one Step needs: the request being sent (nil
// for a GET) with its Content-Type, the response read back, the two
// model-sized vectors, and the delta's grid codes. A Step takes one from
// scratchPool and returns it, so what stays live is sized by the Steps in
// flight, not by the clients that exist.
type stepScratch struct {
	req           []byte
	reqType       string
	resp          []byte
	before, delta tensor.Vector
	codes         []int16
}

var scratchPool = sync.Pool{New: func() interface{} { return new(stepScratch) }}

// Step performs one full participation: fetch a task, train under the
// assigned technique, upload the update. It returns (participated, error);
// participated is false when the server had no slot for this round or the
// round advanced mid-training (a deployment-side dropout).
func (c *Client) Step(ctx context.Context, round int) (bool, error) {
	if c.model == nil {
		return false, fmt.Errorf("dist: client %q not registered", c.Name)
	}
	report := ResourceReport{CPUFrac: 0.8, MemFrac: 0.8, NetFrac: 1, BandwidthMbps: 50, Battery: 1}
	if c.Report != nil {
		report = c.Report(round)
	}
	report.DeadlineDiff = c.lastDeadlineDiff

	sc := scratchPool.Get().(*stepScratch)
	defer scratchPool.Put(sc)

	// A 200 here has already loaded the task's model into c.model (see
	// decodeResponse).
	var task TaskResponse
	status, err := c.exchange(ctx, "/v1/task", TaskRequest{ClientID: c.id, Resources: report}, &task, sc)
	if err != nil {
		return false, err
	}
	if status == http.StatusNoContent || status == http.StatusConflict {
		return false, nil // no slot this round, or the round moved on
	}
	tech, err := opt.Parse(task.Technique)
	if err != nil {
		return false, err
	}
	// Parameters() aliases the model, which training is about to mutate:
	// the pre-training snapshot must be a copy. It is the applied buffer too.
	n := c.model.NumParams()
	if cap(sc.before) < n {
		sc.before, sc.delta, sc.codes = tensor.NewVector(n), tensor.NewVector(n), make([]int16, n)
	}
	before, delta := sc.before[:n], sc.delta[:n]
	copy(before, c.model.Parameters())
	tc := nn.TrainConfig{
		Epochs:    c.spec.Epochs,
		BatchSize: c.spec.BatchSize,
		LR:        c.spec.LR,
		GradClip:  fl.GradClip,
		Seed:      c.rng.Int63(),
	}
	lt, grid, err := fl.TrainLocal(c.model, before, delta, before, c.Shard, c.LocalTest, tech, tc, c.rng, sc.codes[:n])
	if err != nil {
		return false, err
	}
	// The frame's blob, the encoded delta, is written straight after its
	// meta, from the grid TrainLocal recorded when there is one.
	sc.reqType = frameType
	if sc.req, err = appendFrame(sc.req[:0], UpdateRequest{
		ClientID:   c.id,
		Round:      task.Round,
		Technique:  tech.String(),
		Samples:    len(c.Shard),
		AccImprove: lt.AccImprove,
	}, nil); err != nil {
		return false, err
	}
	if sc.req, err = opt.AppendCompressGrid(sc.req, delta, grid, c.spec.QuantBits); err != nil {
		return false, err
	}
	status, err = c.do(ctx, http.MethodPost, "/v1/update", nil, sc)
	if err != nil {
		return false, err
	}
	if status == http.StatusConflict {
		// The round moved on (or our lease expired) while we trained: a
		// real-world dropout.
		c.lastDeadlineDiff = 0.5
		return false, nil
	}
	c.lastDeadlineDiff = 0
	return status == http.StatusOK, nil
}

// Status fetches the server's status.
func (c *Client) Status(ctx context.Context) (StatusResponse, error) {
	var out StatusResponse
	status, err := c.do(ctx, http.MethodGet, "/v1/status", &out, new(stepScratch))
	if err != nil {
		return out, err
	}
	if status != http.StatusOK {
		return out, fmt.Errorf("dist: status returned %d", status)
	}
	return out, nil
}

func (c *Client) post(ctx context.Context, path string, req, resp interface{}) error {
	status, err := c.postStatus(ctx, path, req, resp)
	if err != nil {
		return err
	}
	if status != http.StatusOK {
		return fmt.Errorf("dist: %s returned %d", path, status)
	}
	return nil
}

// postStatus posts req and decodes the response into resp when resp is
// non-nil and the status is 200. Protocol-level statuses (204, 409) are
// returned to the caller without error.
func (c *Client) postStatus(ctx context.Context, path string, req, resp interface{}) (int, error) {
	return c.exchange(ctx, path, req, resp, new(stepScratch))
}

// exchange is postStatus using sc's request and response buffers; whatever
// resp aliases of the response is valid until sc is next used.
func (c *Client) exchange(ctx context.Context, path string, req, resp interface{}, sc *stepScratch) (int, error) {
	var err error
	if u, ok := req.(UpdateRequest); ok {
		sc.reqType = frameType
		sc.req, err = appendFrame(sc.req[:0], u, u.Delta)
	} else {
		var b []byte
		b, err = json.Marshal(req)
		sc.reqType, sc.req = "application/json", append(sc.req[:0], b...)
	}
	if err != nil {
		return 0, err
	}
	return c.do(ctx, http.MethodPost, path, resp, sc)
}

// ErrResponseTooLarge is the terminal error for a response body longer
// than any the protocol can produce for this client's model.
var ErrResponseTooLarge = errors.New("dist: response body exceeds the protocol bound")

// maxResponseBytes bounds every response body read: maxBodyBytes of the
// model once Register has said which model, and before that 64 KiB — far
// above a RegisterResponse or a StatusResponse.
func (c *Client) maxResponseBytes() int64 {
	if c.model == nil {
		return 64 << 10
	}
	return maxBodyBytes(c.model.NumParams())
}

// readResponse reads a 200 body into sc.resp. The server is not trusted
// with this client's memory: nothing is read past maxResponseBytes,
// whatever length the response declares or goes on to send.
func (c *Client) readResponse(r *http.Response, sc *stepScratch) error {
	limit := c.maxResponseBytes()
	if r.ContentLength > limit {
		return ErrResponseTooLarge
	}
	var err error
	sc.resp, err = readBody(sc.resp, io.LimitReader(r.Body, limit+1), r.ContentLength, limit)
	if err == nil && int64(len(sc.resp)) > limit {
		err = ErrResponseTooLarge
	}
	return err
}

// decodeResponse parses a 200 body into resp: a frame for a TaskResponse,
// JSON for everything else. A registered client's task is decoded all the
// way into c.model, so that a model blob cut short — which still splits as
// a frame — fails here, where the failure is retried, exactly as a cut
// JSON body did.
func (c *Client) decodeResponse(body []byte, resp interface{}) error {
	task, ok := resp.(*TaskResponse)
	if !ok {
		return json.Unmarshal(body, resp)
	}
	blob, err := splitFrame(body, task)
	if err != nil {
		return err
	}
	task.Model = blob
	if c.model == nil {
		return nil
	}
	return c.model.UnmarshalBinary(blob)
}

// do issues one logical request — sc.req, when there is one — with retries.
// Transport errors, 5xx statuses, and truncated 200 bodies are transient
// (the request is either idempotent or safely rejected with 409 on replay);
// everything else is terminal.
func (c *Client) do(ctx context.Context, method, path string, resp interface{}, sc *stepScratch) (int, error) {
	policy := c.Retry.withDefaults()
	var lastErr error
	for attempt := 0; attempt < policy.MaxAttempts; attempt++ {
		if attempt > 0 {
			if err := c.backoff(ctx, policy, attempt); err != nil {
				return 0, err
			}
		}
		status, retryable, err := c.attempt(ctx, method, path, resp, sc)
		if err == nil {
			return status, nil
		}
		if !retryable || ctx.Err() != nil {
			return status, err
		}
		lastErr = err
	}
	c.obsRetryExhausted.Inc()
	return 0, fmt.Errorf("dist: %s %s failed after %d attempts: %w",
		method, path, policy.MaxAttempts, lastErr)
}

func (c *Client) attempt(ctx context.Context, method, path string, resp interface{}, sc *stepScratch) (status int, retryable bool, err error) {
	var rd io.Reader
	if sc.req != nil {
		rd = bytes.NewReader(sc.req)
	}
	req, err := http.NewRequestWithContext(ctx, method, c.baseURL+path, rd)
	if err != nil {
		return 0, false, err
	}
	if sc.req != nil {
		req.Header.Set("Content-Type", sc.reqType)
	}
	httpResp, err := c.HTTPClient.Do(req)
	if err != nil {
		c.obsRetryTransport.Inc()
		return 0, true, err // transport failure: retryable
	}
	defer drainClose(httpResp.Body)
	switch {
	case httpResp.StatusCode == http.StatusOK:
		if resp != nil {
			err := c.readResponse(httpResp, sc)
			if errors.Is(err, ErrResponseTooLarge) {
				return httpResp.StatusCode, false, fmt.Errorf("dist: %s: %w", path, err)
			}
			if err == nil {
				err = c.decodeResponse(sc.resp, resp)
			}
			if err != nil {
				// A truncated or garbled body on a 200 is a transport
				// failure in disguise.
				c.obsRetryDecode.Inc()
				return httpResp.StatusCode, true,
					fmt.Errorf("dist: %s response decode: %w", path, err)
			}
		}
		return httpResp.StatusCode, false, nil
	case httpResp.StatusCode == http.StatusNoContent, httpResp.StatusCode == http.StatusConflict:
		return httpResp.StatusCode, false, nil
	case httpResp.StatusCode >= 500:
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		c.obsRetry5xx.Inc()
		return httpResp.StatusCode, true, fmt.Errorf("dist: %s returned %d: %s",
			path, httpResp.StatusCode, bytes.TrimSpace(msg))
	default:
		msg, _ := io.ReadAll(io.LimitReader(httpResp.Body, 512))
		return httpResp.StatusCode, false, fmt.Errorf("dist: %s returned %d: %s",
			path, httpResp.StatusCode, bytes.TrimSpace(msg))
	}
}

// backoff sleeps out the exponential-backoff delay before retry `attempt`
// (1-based), with equal jitter from the client's seeded retry RNG.
func (c *Client) backoff(ctx context.Context, policy RetryPolicy, attempt int) error {
	d := policy.BaseDelay << (attempt - 1)
	if d > policy.MaxDelay || d <= 0 {
		d = policy.MaxDelay
	}
	d = d/2 + time.Duration(c.retryRNG.Int63n(int64(d/2)+1))
	sleep := c.Sleep
	if sleep == nil {
		sleep = ctxSleep
	}
	return sleep(ctx, d)
}

func ctxSleep(ctx context.Context, d time.Duration) error {
	//lint:allow no-wall-clock default real sleep used only when no Client.Sleep is injected; tests always inject
	//lint:allow clock-taint reachable only through the Sleep==nil fallback; every deterministic harness injects Client.Sleep
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// drainClose discards what is left of a body, so the connection can be
// reused, and closes it. A peer that keeps sending past drainLimit loses the
// connection instead of holding the caller.
func drainClose(rc io.ReadCloser) {
	_, _ = io.Copy(io.Discard, io.LimitReader(rc, drainLimit))
	_ = rc.Close()
}

const drainLimit = 1 << 20
