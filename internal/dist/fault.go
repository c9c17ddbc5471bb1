package dist

import (
	"bytes"
	"errors"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"floatfl/internal/obs"
	"floatfl/internal/rngstate"
)

// Sentinel errors the FaultInjector returns, so tests can distinguish a
// request that never reached the server from a response lost on the way
// back (the server-side effects differ: a dropped response was processed).
var (
	ErrFaultDroppedRequest  = errors.New("dist: fault injected: request dropped")
	ErrFaultDroppedResponse = errors.New("dist: fault injected: response dropped")
)

// FaultConfig is the per-request fault distribution of a FaultInjector.
// Exactly one fault kind is drawn per request from the cumulative
// probabilities (their sum must be ≤ 1; the remainder passes through),
// plus an independent latency draw. All randomness comes from the single
// Seed, so the schedule of faults is a pure function of (Seed, request
// ordinal) — two injectors with the same seed produce identical
// schedules regardless of wall time.
type FaultConfig struct {
	Seed int64
	// DropRequestProb: the request never reaches the server (transport
	// error, no server-side effect).
	DropRequestProb float64
	// DropResponseProb: the server fully processes the request but the
	// response is lost (transport error, server-side effect applied).
	DropResponseProb float64
	// Err500Prob / Err503Prob: a synthesized 5xx without contacting the
	// server.
	Err500Prob float64
	Err503Prob float64
	// TruncateProb: the response arrives with its body cut in half
	// (surfaces client-side as a decode failure on a 200).
	TruncateProb float64
	// LatencyProb injects Latency before the request proceeds, waited out
	// on Clock (a FakeClock makes injected latency free and
	// deterministic).
	LatencyProb float64
	Latency     time.Duration
}

// FaultStats counts what the injector actually did.
type FaultStats struct {
	Requests         int
	DroppedRequests  int
	DroppedResponses int
	Errors5xx        int
	Truncated        int
	Delayed          int
	Passed           int
}

type faultKind int

const (
	faultNone faultKind = iota
	faultDropRequest
	faultDropResponse
	faultErr500
	faultErr503
	faultTruncate
)

var faultKindNames = map[faultKind]string{
	faultNone:         "pass",
	faultDropRequest:  "drop-request",
	faultDropResponse: "drop-response",
	faultErr500:       "err-500",
	faultErr503:       "err-503",
	faultTruncate:     "truncate",
}

// FaultInjector is a deterministic, seeded http.RoundTripper that wraps a
// real transport with drop/error/truncate/latency faults. Give each
// simulated client its own injector (own seed): the fault schedule is
// then reproducible per client even when clients interleave freely.
type FaultInjector struct {
	cfg   FaultConfig
	next  http.RoundTripper
	clock Clock

	mu      sync.Mutex
	rng     *rngstate.Source
	stats   FaultStats
	history []string

	// Per-kind injection counters (nil until Instrument; see dist/obs.go).
	obsKinds  [int(faultTruncate) + 1]*obs.Counter
	obsDelays *obs.Counter
}

// NewFaultInjector wraps next (nil: http.DefaultTransport) with the fault
// distribution in cfg; clock (nil: real clock) waits out injected latency.
func NewFaultInjector(cfg FaultConfig, next http.RoundTripper, clock Clock) *FaultInjector {
	if next == nil {
		next = http.DefaultTransport
	}
	if clock == nil {
		clock = RealClock()
	}
	return &FaultInjector{cfg: cfg, next: next, clock: clock, rng: rngstate.New(cfg.Seed)}
}

// Stats returns a snapshot of the injector's counters.
func (f *FaultInjector) Stats() FaultStats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.stats
}

// History returns the per-request fault schedule ("pass", "drop-request",
// ...; a "+delay" suffix marks injected latency) in request order —
// identical across runs with the same seed.
func (f *FaultInjector) History() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.history...)
}

// plan draws this request's fault: exactly two RNG consumptions per
// request (kind, latency) keep the schedule aligned with the ordinal.
func (f *FaultInjector) plan() (faultKind, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.stats.Requests++
	u := f.rng.Float64()
	kind := faultNone
	for _, c := range []struct {
		p float64
		k faultKind
	}{
		{f.cfg.DropRequestProb, faultDropRequest},
		{f.cfg.DropResponseProb, faultDropResponse},
		{f.cfg.Err500Prob, faultErr500},
		{f.cfg.Err503Prob, faultErr503},
		{f.cfg.TruncateProb, faultTruncate},
	} {
		if u < c.p {
			kind = c.k
			break
		}
		u -= c.p
	}
	delayed := f.rng.Float64() < f.cfg.LatencyProb && f.cfg.Latency > 0
	entry := faultKindNames[kind]
	if delayed {
		entry += "+delay"
		f.stats.Delayed++
		f.obsDelays.Inc()
	}
	f.obsKinds[int(kind)].Inc()
	f.history = append(f.history, entry)
	switch kind {
	case faultDropRequest:
		f.stats.DroppedRequests++
	case faultDropResponse:
		f.stats.DroppedResponses++
	case faultErr500, faultErr503:
		f.stats.Errors5xx++
	case faultTruncate:
		f.stats.Truncated++
	default:
		f.stats.Passed++
	}
	return kind, delayed
}

// RoundTrip implements http.RoundTripper.
func (f *FaultInjector) RoundTrip(req *http.Request) (*http.Response, error) {
	kind, delayed := f.plan()
	if delayed {
		fired := make(chan struct{})
		t := f.clock.AfterFunc(f.cfg.Latency, func() { close(fired) })
		select {
		case <-fired:
		case <-req.Context().Done():
			t.Stop()
			return nil, req.Context().Err()
		}
	}
	switch kind {
	case faultDropRequest:
		return nil, ErrFaultDroppedRequest
	case faultErr500:
		return syntheticResponse(req, http.StatusInternalServerError), nil
	case faultErr503:
		return syntheticResponse(req, http.StatusServiceUnavailable), nil
	case faultDropResponse:
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		drainClose(resp.Body)
		return nil, ErrFaultDroppedResponse
	case faultTruncate:
		resp, err := f.next.RoundTrip(req)
		if err != nil {
			return nil, err
		}
		body, err := io.ReadAll(resp.Body)
		_ = resp.Body.Close()
		if err != nil {
			return nil, err
		}
		body = body[:len(body)/2]
		resp.Body = io.NopCloser(bytes.NewReader(body))
		resp.ContentLength = int64(len(body))
		resp.Header.Del("Content-Length")
		return resp, nil
	default:
		return f.next.RoundTrip(req)
	}
}

func syntheticResponse(req *http.Request, code int) *http.Response {
	return &http.Response{
		Status:        http.StatusText(code),
		StatusCode:    code,
		Proto:         "HTTP/1.1",
		ProtoMajor:    1,
		ProtoMinor:    1,
		Header:        make(http.Header),
		Body:          io.NopCloser(strings.NewReader("injected fault")),
		ContentLength: int64(len("injected fault")),
		Request:       req,
	}
}
