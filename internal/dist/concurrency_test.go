package dist

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"testing"

	"floatfl/internal/data"
)

// TestConcurrentClients drives the aggregator with truly concurrent client
// goroutines; run under -race this checks the server's locking.
func TestConcurrentClients(t *testing.T) {
	srv, hs, fed := testServer(t, nil, 4)
	const n = 6
	const rounds = 4

	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(hs.URL, fmt.Sprintf("conc-%d", i), fed.Train[i], fed.LocalTest[i], int64(200+i))
			if err := c.Register(context.Background(), 15, 3000); err != nil {
				errs <- err
				return
			}
			for r := 0; r < rounds; r++ {
				if _, err := c.Step(context.Background(), r); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if srv.Round() == 0 {
		t.Fatal("no aggregation happened under concurrent load")
	}
}

// TestPendingEvaluationRace has clients fetch the next round's tasks and
// pollers read /v1/status and /v1/timeline while aggregations leave
// holdout evaluations pending; under -race it checks that an evaluation
// shares the global model with the task path only for reading. Close
// joins the last evaluation, so no goroutine outlives the server.
func TestPendingEvaluationRace(t *testing.T) {
	base := runtime.NumGoroutine()
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 6, Alpha: 0.1, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := NewServer(ServerConfig{
		Spec: TrainSpec{
			Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
			Epochs: 1, BatchSize: 16, LR: 0.1,
		},
		AggregateK: 2,
		Holdout:    fed.GlobalTest,
		Seed:       6,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	tr := &http.Transport{}
	hc := &http.Client{Transport: tr}

	stop := make(chan struct{})
	var pollers sync.WaitGroup
	for _, path := range []string{"/v1/status", "/v1/timeline"} {
		pollers.Add(1)
		go func(url string) {
			defer pollers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				resp, err := hc.Get(url)
				if err != nil {
					t.Error(err)
					return
				}
				_, _ = io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}(hs.URL + path)
	}

	const rounds = 6
	var clients sync.WaitGroup
	for i := 0; i < len(fed.Train); i++ {
		clients.Add(1)
		go func(i int) {
			defer clients.Done()
			c := NewClient(hs.URL, fmt.Sprintf("eval-race-%d", i), fed.Train[i], fed.LocalTest[i], int64(400+i))
			c.HTTPClient = hc
			if err := c.Register(context.Background(), 15, 3000); err != nil {
				t.Error(err)
				return
			}
			for srv.Round() < rounds {
				if _, err := c.Step(context.Background(), srv.Round()); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	clients.Wait()
	close(stop)
	pollers.Wait()

	srv.Close()
	srv.mu.Lock()
	pending := srv.pending
	srv.mu.Unlock()
	if pending != nil {
		t.Error("Close left an evaluation pending")
	}
	if got := srv.Timeline().Len(); got != srv.Round() {
		t.Errorf("%d timeline rows after %d aggregations", got, srv.Round())
	}
	tr.CloseIdleConnections()
	hs.Close()
	assertNoGoroutineLeak(t, base)
}

// TestConcurrentRegistrations checks ID assignment races.
func TestConcurrentRegistrations(t *testing.T) {
	_, hs, fed := testServer(t, nil, 4)
	const n = 16
	ids := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(hs.URL, fmt.Sprintf("reg-%d", i), fed.Train[i%8], fed.LocalTest[i%8], int64(i))
			if err := c.Register(context.Background(), 10, 2000); err != nil {
				t.Error(err)
				return
			}
			ids <- c.ID()
		}(i)
	}
	wg.Wait()
	close(ids)
	seen := map[int]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate client ID %d under concurrent registration", id)
		}
		seen[id] = true
	}
	if len(seen) != n {
		t.Fatalf("registered %d unique IDs, want %d", len(seen), n)
	}
}

// TestConcurrentRegistrationsSameName: concurrent retries of one logical
// client must collapse onto a single identity.
func TestConcurrentRegistrationsSameName(t *testing.T) {
	_, hs, fed := testServer(t, nil, 4)
	const n = 8
	ids := make(chan int, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c := NewClient(hs.URL, "same-name", fed.Train[i%8], fed.LocalTest[i%8], int64(i))
			if err := c.Register(context.Background(), 10, 2000); err != nil {
				t.Error(err)
				return
			}
			ids <- c.ID()
		}(i)
	}
	wg.Wait()
	close(ids)
	first := -1
	for id := range ids {
		if first == -1 {
			first = id
		} else if id != first {
			t.Fatalf("same-name registrations produced IDs %d and %d", first, id)
		}
	}
}
