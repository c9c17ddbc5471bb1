// Distributed deployment: FLOAT outside the simulator.
//
// This example runs the real HTTP aggregator (the same server behind
// cmd/floatd) on a localhost listener and drives it with eight concurrent
// client processes-in-goroutines, each holding a private non-IID shard and
// reporting fluctuating resources. FLOAT on the server assigns each client
// a technique per round from those self-reports alone — no raw data ever
// leaves a client, and the updates cross the wire quantized and
// run-length compressed.
//
//	go run ./examples/distributed
package main

import (
	"context"
	"fmt"
	"log"
	"net"
	"net/http"
	"sync"
	"time"

	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/dist"
	"floatfl/internal/rl"
	"floatfl/internal/rngstate"
)

const (
	numClients = 8
	rounds     = 10
	seed       = 29
)

func main() {
	fed, err := data.Generate("femnist", data.GenerateConfig{
		Clients: numClients, Alpha: 0.1, Seed: seed,
	})
	if err != nil {
		log.Fatal(err)
	}

	float := core.New(core.Config{
		Agent:           rl.Config{Seed: seed, TotalRounds: rounds},
		BatchSize:       16,
		Epochs:          2,
		ClientsPerRound: numClients,
	})
	srv, err := dist.NewServer(dist.ServerConfig{
		Spec: dist.TrainSpec{
			Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes,
			Epochs: 2, BatchSize: 16, LR: 0.1,
		},
		AggregateK: numClients,
		Controller: float,
		Holdout:    fed.GlobalTest,
		// Fault tolerance: a client silent past its lease loses the slot
		// (and the dropout is reported to FLOAT); a round stuck under
		// AggregateK updates for RoundSeconds aggregates what arrived.
		LeaseSeconds: 60,
		RoundSeconds: 120,
		Seed:         seed,
	})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	//lint:allow naked-goroutine server goroutine lives for the process lifetime; the listener closes at exit
	go func() {
		if err := http.Serve(ln, srv.Handler()); err != nil {
			// Listener closes at process exit; nothing to do.
			_ = err
		}
	}()
	baseURL := "http://" + ln.Addr().String()
	fmt.Printf("aggregator listening on %s\n", baseURL)

	// Clients run under a deadline context; Register/Step retry transient
	// network failures internally (seeded exponential backoff), so a flaky
	// localhost loopback would not kill the run.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Minute)
	defer cancel()

	var wg sync.WaitGroup
	for i := 0; i < numClients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rngstate.New(int64(seed + i))
			c := dist.NewClient(baseURL, fmt.Sprintf("phone-%d", i),
				fed.Train[i], fed.LocalTest[i], int64(seed+100+i))
			// A mix of weak and strong devices.
			gflops := float64(6 + 10*(i%4))
			if err := c.Register(ctx, gflops, float64(2000+500*(i%4))); err != nil {
				log.Fatal(err)
			}
			c.Report = func(round int) dist.ResourceReport {
				// Fluctuating self-reported availability.
				return dist.ResourceReport{
					CPUFrac:       0.2 + float64(0.6*rng.Float64()),
					MemFrac:       0.3 + float64(0.5*rng.Float64()),
					NetFrac:       0.2 + float64(0.8*rng.Float64()),
					BandwidthMbps: 5 + float64(60*rng.Float64()),
					Battery:       0.4 + float64(0.6*rng.Float64()),
				}
			}
			for round := 0; round < rounds; round++ {
				if _, err := c.Step(ctx, round); err != nil {
					log.Fatal(err)
				}
			}
		}(i)
	}
	wg.Wait()

	fmt.Printf("\ncompleted %d aggregation rounds\n", srv.Round())
	fmt.Printf("holdout accuracy: %.1f%% (chance %.1f%%)\n",
		srv.HoldoutAccuracy()*100, 100.0/float64(fed.Profile.Classes))
	sum := float.Summary()
	fmt.Printf("FLOAT learned %d states from %d client reports (%.1f KB)\n",
		sum.States, sum.Updates, float64(sum.MemoryBytes)/1024)
	fmt.Println("\nper-action assignments over the run:")
	for _, st := range sum.Actions {
		if st.Visits > 0 {
			fmt.Printf("  %-10s %3d assignments, P(success)=%.2f\n", st.Technique, st.Visits, st.Part)
		}
	}
}
