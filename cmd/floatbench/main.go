// Command floatbench regenerates the paper's evaluation figures as text
// tables. Each figure of FLOAT's evaluation (and each design ablation) is
// a named experiment; run them all or cherry-pick.
//
// Usage:
//
//	floatbench -fig all                 # every figure at quick scale
//	floatbench -fig 12 -scale paper     # the end-to-end grid at paper scale
//	floatbench -fig 2,3,6
//	floatbench -fig 3 -out run          # run/metrics.txt, run/trace.jsonl
//	floatbench -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime/pprof"
	"strings"
	"time"

	"floatfl/internal/experiment"
	"floatfl/internal/obs"
	"floatfl/internal/report"
)

func main() {
	var (
		figs    = flag.String("fig", "all", "comma-separated figure names, or 'all'")
		format  = flag.String("format", "text", "output format: text | json")
		scale   = flag.String("scale", "quick", "experiment scale: quick | paper")
		list    = flag.Bool("list", false, "list available figures and exit")
		clients = flag.Int("clients", 0, "override client count (0 = the scale's)")
		rounds  = flag.Int("rounds", 0, "override round count (0 = the scale's)")
		seed    = flag.Int64("seed", 0, "override RNG seed")
		par     = flag.Int("parallel", 0, "client-execution workers per round (0 = all CPU cores; results are identical for any value)")
		outDir  = flag.String("out", "", "write the metrics exposition and the phase trace of every figure run into this directory (read it with floatreport)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file; samples carry phase labels (select | train | aggregate)")
	)
	flag.Parse()
	if err := checkCounts(); err != nil {
		fatal(err)
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
				fmt.Fprintln(os.Stderr, "floatbench: cpuprofile:", err)
			}
		}()
	}

	if *list {
		fmt.Println("available figures:")
		for _, name := range experiment.FigureNames() {
			fmt.Printf("  %s\n", name)
		}
		return
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
	if *seed != 0 {
		sc.Seed = *seed
	}
	if *par > 0 {
		sc.Parallelism = *par
	}
	if *outDir != "" {
		if err := os.MkdirAll(*outDir, 0o755); err != nil {
			fatal(err)
		}
		sc.Metrics, sc.Tracer = obs.NewRegistry(), obs.NewTracer()
		// Telemetry accumulates across every figure run this invocation.
		defer func() {
			if err := report.WriteTelemetry(*outDir, sc.Metrics, sc.Tracer, nil); err != nil {
				fmt.Fprintln(os.Stderr, "floatbench: telemetry:", err)
			}
		}()
	}

	names := experiment.FigureNames()
	if *figs != "all" {
		names = strings.Split(*figs, ",")
	}
	jsonOut := map[string][]experiment.Table{}
	for _, name := range names {
		name = strings.TrimSpace(name)
		//lint:allow no-wall-clock benchmark harness reports real elapsed time per figure
		start := time.Now()
		tables, err := experiment.ByName(name, sc)
		if err != nil {
			fatal(err)
		}
		if *format == "json" {
			jsonOut[name] = tables
			continue
		}
		for i := range tables {
			tables[i].Fprint(os.Stdout)
		}
		//lint:allow no-wall-clock benchmark harness reports real elapsed time per figure
		fmt.Printf("[fig %s completed in %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}
	if *format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(jsonOut); err != nil {
			fatal(err)
		}
	}
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
	fmt.Fprintln(os.Stderr, "floatbench:", err)
	os.Exit(1)
}
