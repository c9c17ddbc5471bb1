// Command floatsim runs a single federated-learning experiment — a
// dataset, a client-selection algorithm, an optional FLOAT / heuristic /
// static controller, and an interference scenario — and prints a per-run
// report: accuracy statistics, dropout causes, resource inefficiency, and
// (for FLOAT) the learned per-action Q summary. -out DIR writes every
// artifact into DIR under fixed names (report.LogFile and its siblings):
// log, metrics, trace, timeline, snapshot, and the trained RLHF agent for
// the paper's pre-train-and-transfer workflow. floatreport DIR reads them.
//
// Examples:
//
//	floatsim -dataset femnist -algo fedavg
//	floatsim -dataset femnist -algo oort -controller float
//	floatsim -dataset cifar10 -algo fedbuff -controller float -scale paper
//	floatsim -dataset femnist -algo fedavg -controller static:prune50
//	floatsim -dataset femnist -controller float -out run
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"runtime/pprof"
	"strings"
	"syscall"

	"floatfl/internal/checkpoint"
	"floatfl/internal/core"
	"floatfl/internal/device"
	"floatfl/internal/experiment"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/report"
	"floatfl/internal/rl"
	"floatfl/internal/trace"
)

func main() {
	var (
		dataset    = flag.String("dataset", "femnist", "dataset profile: femnist | cifar10 | openimage | speech | emnist")
		algo       = flag.String("algo", "fedavg", "selection algorithm: fedavg | oort | refl | fedbuff")
		controller = flag.String("controller", "none", "none | float | float-rl | heuristic | static:<technique>")
		scenario   = flag.String("scenario", "dynamic", "interference: none | static | dynamic")
		alpha      = flag.Float64("alpha", 0.1, "Dirichlet concentration (non-IID strength)")
		scale      = flag.String("scale", "quick", "experiment scale: quick | paper")
		clients    = flag.Int("clients", 0, "override client count (0 = the scale's)")
		rounds     = flag.Int("rounds", 0, "override round count (0 = the scale's)")
		perRound   = flag.Int("per-round", 0, "override clients per round (0 = the scale's)")
		deadlinePc = flag.Float64("deadline-pct", 0, "deadline percentile of population response time, 0-100 (0 = the default 60)")
		seed       = flag.Int64("seed", 0, "override RNG seed")
		parallel   = flag.Int("parallel", 0, "client-execution workers per round (0 = all CPU cores; results are identical for any value)")
		lazy       = flag.Bool("lazy", false, "derive client state lazily from (seed, clientID) instead of materializing the population; auto-enabled at -clients >= 50000")
		cacheSize  = flag.Int("cache-clients", 4096, "lazy mode: bound on cached (unpinned) client states (0 = 4096); round memory is O(cache + per-round)")
		evalCap    = flag.Int("eval-clients", 0, "cap the final per-client evaluation sweep (0 = evaluate everyone)")
		outDir     = flag.String("out", "", "write every artifact of the run into this directory: training log, metrics, trace, timeline, snapshot and FLOAT agent (read it with floatreport)")
		httpAddr   = flag.String("http", "", "serve GET /v1/metrics and /v1/timeline on this address (e.g. :8080) while the run executes")
		cpuProf    = flag.String("cpuprofile", "", "write a CPU profile to this file; samples carry phase labels (select | train | aggregate)")
		seeds      = flag.Int("seeds", 0, "run a seed sweep of this size and report mean±std instead of a single run (0 = a single run)")
		ckptEvery  = flag.Int("checkpoint-every", 0, "snapshot into the -out directory every N rounds (sync) or aggregations (async); requires -out (0 = no periodic snapshots)")
		resumePath = flag.String("resume", "", "resume a run from a snapshot file written by -out; rounds already completed are skipped and the output is bit-identical to an uninterrupted run")
	)
	flag.Parse()
	if err := checkCounts(); err != nil {
		fatal(err)
	}
	if *alpha <= 0 {
		fatal(fmt.Errorf("-alpha %v: must be > 0", *alpha))
	}
	if *deadlinePc < 0 || *deadlinePc > 100 {
		fatal(fmt.Errorf("-deadline-pct %v: must be in [0, 100]", *deadlinePc))
	}

	sc, err := experiment.ScaleByName(*scale)
	if err != nil {
		fatal(err)
	}
	if *clients > 0 {
		sc.Clients = *clients
	}
	if *rounds > 0 {
		sc.Rounds = *rounds
	}
	if *perRound > 0 {
		sc.PerRound = *perRound
	}
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *parallel > 0 {
		sc.Parallelism = *parallel
	}
	// Huge populations are infeasible to materialize; switch to lazy
	// derivation automatically unless the user explicitly said -lazy=false.
	lazySet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "lazy" {
			lazySet = true
		}
	})
	if !lazySet && sc.Clients >= 50_000 {
		*lazy = true
		fmt.Fprintf(os.Stderr, "floatsim: %d clients — enabling lazy population (override with -lazy=false)\n", sc.Clients)
	}
	sc.Lazy = *lazy
	sc.CacheClients = *cacheSize
	sc.EvalClients = *evalCap
	if *outDir != "" || *httpAddr != "" {
		// The timeline samples the registry, so both come together.
		sc.Metrics = obs.NewRegistry()
		sc.Timeline = obs.NewTimeline(sc.Metrics, obs.DefaultTimelineCapacity)
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		sc.Tracer = obs.NewTracer()
		// Telemetry is flushed at exit even on the sweep path (the
		// registry then accumulates across all sweep runs).
		defer func() {
			if err := report.WriteTelemetry(*outDir, sc.Metrics, sc.Tracer, sc.Timeline); err != nil {
				fmt.Fprintln(os.Stderr, "floatsim: telemetry:", err)
			}
		}()
	}

	if *httpAddr != "" {
		// Live inspection plane: the handlers read the same registry and
		// timeline ring the engine writes, so a browser or curl can watch
		// the run converge without perturbing it.
		mux := http.NewServeMux()
		mux.Handle("/v1/metrics", obs.MetricsHandler(sc.Metrics))
		mux.Handle("/v1/timeline", obs.TimelineHandler(sc.Timeline))
		//lint:allow naked-goroutine inspection server lives for the process lifetime; the listener dies at exit
		go func() {
			if err := http.ListenAndServe(*httpAddr, mux); err != nil {
				fmt.Fprintln(os.Stderr, "floatsim: http:", err)
			}
		}()
	}

	if *cpuProf != "" {
		f, err := os.Create(*cpuProf)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			if err := f.Close(); err != nil {
				fmt.Fprintln(os.Stderr, "floatsim: cpuprofile:", err)
			}
		}()
	}

	sn, err := trace.ParseScenario(*scenario)
	if err != nil {
		fatal(err)
	}
	spec := experiment.RunSpec{
		Dataset:            *dataset,
		Algo:               *algo,
		Alpha:              *alpha,
		Scenario:           sn,
		DeadlinePercentile: *deadlinePc,
	}
	switch {
	case *controller == "none":
	case *controller == "float":
		spec.Float = true
	case *controller == "float-rl":
		spec.Float = true
		cfg := rl.Config{DisableHF: true}
		spec.FloatCfg = &cfg
	case *controller == "heuristic":
		spec.Heur = true
	case strings.HasPrefix(*controller, "static:"):
		spec.Static = strings.TrimPrefix(*controller, "static:")
	default:
		fatal(fmt.Errorf("unknown controller %q", *controller))
	}

	if *ckptEvery > 0 && *outDir == "" {
		fatal(fmt.Errorf("-checkpoint-every requires -out"))
	}
	if *seeds > 0 && (*ckptEvery > 0 || *resumePath != "") {
		fatal(fmt.Errorf("-checkpoint-every/-resume cannot be combined with -seeds"))
	}
	snapPath := filepath.Join(*outDir, report.SnapshotFile)
	if *seeds == 0 && (*outDir != "" || *resumePath != "") {
		ck := &fl.CheckpointConfig{Every: *ckptEvery}
		if *outDir != "" {
			ck.Sink = func(b []byte) error { return checkpoint.WriteRaw(snapPath, b) }
			// A SIGINT/SIGTERM requests a graceful stop: the engine finishes
			// the in-flight round, snapshots at its quiescent boundary, and
			// returns a partial Result instead of dying mid-mutation.
			sigc := make(chan os.Signal, 1)
			signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
			ck.Stop = func() bool {
				select {
				case <-sigc:
					fmt.Fprintln(os.Stderr, "floatsim: signal — snapshotting and stopping at the next quiescent boundary")
					return true
				default:
					return false
				}
			}
		}
		if *resumePath != "" {
			blob, err := os.ReadFile(*resumePath)
			if err != nil {
				fatal(err)
			}
			ck.Resume = blob
		}
		sc.Checkpoint = ck
	}

	if *seeds > 0 {
		sweep, err := experiment.Sweep(sc, spec, *seeds)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("seed sweep (n=%d): dataset=%s algo=%s controller=%s\n\n",
			*seeds, *dataset, *algo, *controller)
		fmt.Printf("  avg accuracy      %s\n", sweep.AvgAccuracy)
		fmt.Printf("  dropped rounds    %s\n", sweep.Dropped)
		fmt.Printf("  wasted compute-h  %s\n", sweep.WastedCompute)
		fmt.Printf("  wasted comm-h     %s\n", sweep.WastedComm)
		return
	}

	if *outDir != "" {
		logFile, err := os.Create(filepath.Join(*outDir, report.LogFile))
		if err != nil {
			fatal(err)
		}
		defer logFile.Close()
		jl := fl.NewJSONLLogger(logFile)
		spec.Logger = jl
		defer func() {
			if err := jl.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "floatsim: log writer:", err)
			}
		}()
	}

	res, ctrl, err := experiment.RunWithController(sc, spec)
	if err != nil {
		fatal(err)
	}

	printReport(res)

	if sc.Checkpoint != nil && res.CompletedRounds < sc.Rounds {
		fmt.Printf("\nstopped after %d/%d rounds — continue with -resume %s\n",
			res.CompletedRounds, sc.Rounds, snapPath)
	}

	if f, ok := ctrl.(*core.Float); ok {
		sum := f.Summary()
		fmt.Printf("\nFLOAT: %d agent(s), %d states visited, %d updates, %.1f KB Q-table(s)\n",
			sum.Agents, sum.States, sum.Updates, float64(sum.MemoryBytes)/1024)
		fmt.Println("per-action learned objectives (visit-weighted):")
		report.FprintActions(os.Stdout, sum.Actions)
		if *outDir != "" && f.Agent() != nil {
			agentPath := filepath.Join(*outDir, report.AgentFile)
			out, err := os.Create(agentPath)
			if err != nil {
				fatal(err)
			}
			if err := f.SaveAgent(out); err != nil {
				fatal(err)
			}
			if err := out.Close(); err != nil {
				fatal(err)
			}
			fmt.Printf("\nagent Q-table written to %s (%d states)\n", agentPath, f.Agent().StatesVisited())
		}
	}
}

func printReport(res *fl.Result) {
	fmt.Printf("run: algo=%s controller=%s deadline=%.1fs\n\n",
		res.Algorithm, res.Controller, res.DeadlineSec)

	fmt.Println("accuracy (final global model on clients' local test splits):")
	s := res.FinalAccStats
	fmt.Printf("  top-10%%: %.1f%%   average: %.1f%%   bottom-10%%: %.1f%%   global holdout: %.1f%%\n\n",
		s.Top10*100, s.Average*100, s.Bottom10*100, res.FinalGlobalAcc*100)

	fmt.Println("convergence (global holdout accuracy per eval point):")
	for i, acc := range res.GlobalAccHistory {
		fmt.Printf("  round %4d: %.1f%%\n", res.EvalRounds[i], acc*100)
	}
	fmt.Println()

	l := res.Ledger
	fmt.Printf("participation: %d client-rounds, %d completed, %d dropped (%.1f%% drop rate)\n",
		l.TotalRounds, l.TotalRounds-l.TotalDrops, l.TotalDrops, l.DropRate()*100)
	for _, reason := range []device.DropReason{
		device.DropDeadline, device.DropUnavailable, device.DropMemory, device.DropEnergy,
	} {
		if n := l.DropsByReason[reason]; n > 0 {
			fmt.Printf("  dropouts by %s: %d\n", reason, n)
		}
	}
	fmt.Printf("selection bias: %.1f%% never selected, %.1f%% never completed, gini %.3f, jain %.3f\n\n",
		l.NeverSelectedFraction()*100, l.NeverCompletedFraction()*100,
		l.SelectionGini(), l.SelectionJainIndex())

	fmt.Println("resource inefficiency (wasted by dropped clients):")
	fmt.Printf("  compute %.2f h   communication %.2f h   memory %.3f TB\n",
		l.Wasted.ComputeHours, l.Wasted.CommHours, l.Wasted.MemoryTB)
	fmt.Printf("useful resource usage: compute %.2f h   communication %.2f h\n",
		l.Useful.ComputeHours, l.Useful.CommHours)
	fmt.Printf("wall clock: %.2f h\n", res.WallClockSeconds/3600)
}

// checkCounts rejects a negative value of any int flag: every one is a
// count, where 0 means the default its help text names.
func checkCounts() error {
	var err error
	flag.VisitAll(func(f *flag.Flag) {
		if n, ok := f.Value.(flag.Getter).Get().(int); ok && n < 0 && err == nil {
			err = fmt.Errorf("-%s %d: must be >= 0", f.Name, n)
		}
	})
	return err
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floatsim:", err)
	os.Exit(1)
}
