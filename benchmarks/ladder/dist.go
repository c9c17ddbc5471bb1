package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"floatfl/internal/data"
	"floatfl/internal/dist"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
)

// reqHeader carries the request number from the client-side seam to the
// server-side one, so a handler's time can be taken out of its request's.
const reqHeader = "X-Ladder-Req"

// request is one HTTP exchange seen from both ends.
type request struct {
	path        string
	status      int
	round       int
	start, end  int64 // client side: RoundTrip start → body closed
	hStart      int64 // server side: handler entry → return
	hEnd        int64
	reqBytes    int64
	respBytes   int64
	handlerSeen bool
}

// step is one Client.Step with the requests it made.
type step struct {
	round      int
	start, end int64
	requests   []int // indices into distTrace.reqs
}

// distTrace collects what the two HTTP seams and the lock-step driver see
// on a traced dist-loopback lap.
type distTrace struct {
	lap   *lap
	round atomic.Int64

	mu    sync.Mutex
	reqs  []request
	steps []step

	registerNS []int64
	snapshotNS int64
	snapshotKB float64
	retries    int64
	wallNS     int64
}

// handlerSeam times every request inside the server.
func (t *distTrace) handlerSeam(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := stamp()
		h.ServeHTTP(w, r)
		end := stamp()
		id, err := strconv.Atoi(r.Header.Get(reqHeader))
		if err != nil {
			return
		}
		t.mu.Lock()
		if id < len(t.reqs) {
			t.reqs[id].hStart, t.reqs[id].hEnd, t.reqs[id].handlerSeen = start, end, true
		}
		t.mu.Unlock()
	})
}

// rtSeam times every request of one logical client, from RoundTrip to the
// moment the response body is closed.
type rtSeam struct {
	inner http.RoundTripper
	t     *distTrace
	mine  *[]int // the owning client's requests since its step began
}

func (s *rtSeam) RoundTrip(req *http.Request) (*http.Response, error) {
	t := s.t
	t.mu.Lock()
	id := len(t.reqs)
	t.reqs = append(t.reqs, request{
		path: req.URL.Path, round: int(t.round.Load()), reqBytes: req.ContentLength,
	})
	*s.mine = append(*s.mine, id)
	t.mu.Unlock()

	out := req.Clone(req.Context())
	out.Header.Set(reqHeader, strconv.Itoa(id))
	start := stamp()
	resp, err := s.inner.RoundTrip(out)
	if err != nil {
		return nil, err
	}
	resp.Body = &timedBody{ReadCloser: resp.Body, done: func(n int64) {
		end := stamp()
		t.mu.Lock()
		r := &t.reqs[id]
		r.status, r.start, r.end, r.respBytes = resp.StatusCode, start, end, n
		t.mu.Unlock()
	}}
	return resp, nil
}

// timedBody reports the bytes read and the close time of a response body.
type timedBody struct {
	io.ReadCloser
	n    int64
	done func(n int64)
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	b.n += int64(n)
	return n, err
}

func (b *timedBody) Close() error {
	err := b.ReadCloser.Close()
	if b.done != nil {
		b.done(b.n)
		b.done = nil
	}
	return err
}

// distLap runs a real dist.Server behind a loopback listener and steps
// sz.Clients logical clients in lock-step rounds from `par` driver
// goroutines, one connection each.
func distLap(l *lap, sz sizes, seed int64, par int) (outcome, error) {
	fed, err := data.Generate(sz.Dataset, data.GenerateConfig{Clients: sz.Clients, Alpha: 0.1, Seed: seed})
	if err != nil {
		return outcome{}, err
	}
	// The controller is stateless so the work does not depend on the
	// order in which the drivers' updates arrive.
	srv, err := dist.NewServer(dist.ServerConfig{
		Spec: dist.TrainSpec{
			Arch: sz.Arch, InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
			Epochs: sz.Epochs, BatchSize: sz.Batch, LR: 0.1,
		},
		AggregateK:     sz.Clients,
		MaxOutstanding: sz.Clients,
		Controller:     fl.StaticController{Tech: opt.TechQuant8},
		Holdout:        fed.GlobalTest,
		LeaseSeconds:   600,
		RoundSeconds:   1200,
		Seed:           seed,
	})
	if err != nil {
		return outcome{}, err
	}
	defer srv.Close()

	var dt *distTrace
	handler := srv.Handler()
	if l.rec != nil {
		dt = &distTrace{lap: l}
		handler = dt.handlerSeam(handler)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return outcome{}, err
	}
	hs := &http.Server{Handler: handler}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	defer func() {
		_ = hs.Close() // every exchange has finished; nothing is in flight
		<-served
	}()
	baseURL := "http://" + ln.Addr().String()

	if par > sz.Clients {
		par = sz.Clients
	}
	transports := make([]*http.Transport, par)
	for d := range transports {
		transports[d] = &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1}
		defer transports[d].CloseIdleConnections()
	}
	retryReg := obs.NewRegistry()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Minute)
	defer cancel()
	clients := make([]*dist.Client, sz.Clients)
	mine := make([][]int, sz.Clients)
	for i := range clients {
		c := dist.NewClient(baseURL, fmt.Sprintf("ladder-%d", i),
			capSamples(fed.Train[i], sz.ShardCap), capSamples(fed.LocalTest[i], sz.ShardCap), seed+100+int64(i))
		var rt http.RoundTripper = transports[i%par]
		if dt != nil {
			rt = &rtSeam{inner: rt, t: dt, mine: &mine[i]}
		}
		c.HTTPClient = &http.Client{Transport: rt, Timeout: 30 * time.Second}
		c.Instrument(retryReg)
		t := stamp()
		if err := c.Register(ctx, 10, 2000); err != nil {
			return outcome{}, fmt.Errorf("register client %d: %w", i, err)
		}
		if dt != nil {
			dt.registerNS = append(dt.registerNS, stamp()-t)
			mine[i] = mine[i][:0]
		}
		clients[i] = c
	}

	l.begin()
	var out outcome
	var stepErr error
	var mu sync.Mutex
	for round := 0; round < sz.Rounds; round++ {
		if dt != nil {
			dt.round.Store(int64(round))
		}
		var wg sync.WaitGroup
		for d := 0; d < par; d++ {
			wg.Add(1)
			go func(d int) {
				defer wg.Done()
				for i := d; i < len(clients); i += par {
					t := stamp()
					ok, err := clients[i].Step(ctx, round)
					if dt != nil {
						dt.mu.Lock()
						dt.steps = append(dt.steps, step{round, t, stamp(), append([]int(nil), mine[i]...)})
						dt.mu.Unlock()
						mine[i] = mine[i][:0]
					}
					mu.Lock()
					out.clientRounds++
					if err != nil || !ok {
						// A Step error or a 204/409 non-participation: the
						// lock-step driver never causes one on purpose.
						out.failed++
						if err != nil {
							stepErr = errors.Join(stepErr, fmt.Errorf("client %d round %d: %w", i, round, err))
						}
					}
					mu.Unlock()
				}
			}(d)
		}
		wg.Wait()
		l.boundary()
	}
	l.finish()

	if dt != nil {
		dt.wallNS = l.bounds[len(l.bounds)-1] - l.bounds[0]
		for _, name := range []string{"transport", "status5xx", "decode"} {
			dt.retries += retryReg.Counter(`dist_client_retries_total{cause="` + name + `"}`).Value()
		}
		t := stamp()
		blob, err := srv.Snapshot()
		if err != nil {
			return outcome{}, fmt.Errorf("server snapshot: %w", err)
		}
		dt.snapshotNS, dt.snapshotKB = stamp()-t, float64(len(blob))/1024
		dt.spans()
		l.dist = dt
	}

	if stepErr != nil {
		return out, stepErr
	}
	if got := srv.Round(); got != sz.Rounds {
		return out, fmt.Errorf("server is at round %d after %d lock-step rounds", got, sz.Rounds)
	}
	out.acc = srv.HoldoutAccuracy()
	if math.IsNaN(out.acc) || math.IsInf(out.acc, 0) {
		return out, fmt.Errorf("holdout accuracy is not finite")
	}
	// Updates arrive in whatever order the drivers' connections deliver
	// them and float addition is not associative, so the model bits are
	// not pinned across runs; the digest records what is.
	out.digest = fmt.Sprintf("round=%d,updates=%d", srv.Round(), out.clientRounds-out.failed)
	return out, nil
}

func capSamples(s []nn.Sample, n int) []nn.Sample {
	if n > 0 && len(s) > n {
		return s[:n]
	}
	return s
}

// spans writes the lap's rounds, steps, requests and handlers into the
// recorder as a four-level tree.
func (t *distTrace) spans() {
	l, r := t.lap, t.lap.rec
	rounds := make([]int, len(l.bounds)-1)
	for i := range rounds {
		rounds[i] = r.add("dist", "round", l.idx, i, l.bounds[i], l.bounds[i+1], -1)
	}
	for _, s := range t.steps {
		si := r.add("dist", "step", l.idx, s.round, s.start, s.end, rounds[s.round])
		for _, id := range s.requests {
			q := t.reqs[id]
			qi := r.add("dist", "request"+q.path, l.idx, s.round, q.start, q.end, si)
			if q.handlerSeen {
				r.add("dist", "handler"+q.path, l.idx, s.round, q.hStart, q.hEnd, qi)
			}
		}
	}
}
