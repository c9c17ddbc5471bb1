// Command ladder is the repository's benchmark: four workloads that load
// different layers of the stack, seven bounded end-to-end metrics on each, and a
// traced mode that attributes real time to layers from outside, through
// the seams the engines already expose. See README.md.
//
// One workload, one result line (what the benchmark driver runs):
//
//	ladder --workload sync-train --seed 1 --seconds 15 --trace 0
//
// Every workload, untraced then traced, every metric printed by name:
//
//	ladder -seed 1 -out out/ladder.json
//
// Two reports against the bounds in BENCHMARK.json:
//
//	ladder -compare old.json new.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	var (
		workloadName = flag.String("workload", "", "run this one workload and print one JSON result line (default: all, as a report)")
		seed         = flag.Int64("seed", 1, "workload seed: the only source of input randomness")
		seconds      = flag.Float64("seconds", 15, "how long one run measures")
		traceFlag    = flag.Int("trace", 0, "with -workload: 0 reports the end-to-end metrics, 1 the per-layer metrics")
		out          = flag.String("out", "", "write the report as JSON to this file, and each workload's spans beside it as <out>-spans-<workload>.jsonl")
		traceOut     = flag.String("trace-out", "", "with -workload and -trace 1: write the spans as JSONL to this file")
		reps         = flag.Int("reps", 1, "report mode: untraced runs per workload, on seeds seed..seed+reps-1")
		smoke        = flag.Bool("smoke", false, "tiny sizes: every workload well under two seconds, same code paths")
		compare      = flag.Bool("compare", false, "compare two reports: ladder -compare OLD.json NEW.json")
		benchFile    = flag.String("bench", "", "BENCHMARK.json for -compare (default: found upward from the working directory)")
	)
	flag.Parse()

	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare takes OLD.json NEW.json"))
		}
		ok, err := compareReports(os.Stdout, *benchFile, flag.Arg(0), flag.Arg(1))
		if err != nil {
			fatal(err)
		}
		if !ok {
			os.Exit(1)
		}
		return
	}

	if *workloadName != "" {
		w, ok := lookupWorkload(*workloadName)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *workloadName))
		}
		cfg := newRunConfig(w, *seed, *seconds, *traceFlag != 0, *smoke)
		cfg.traceOut = *traceOut
		res := measure(cfg)
		fmt.Fprintf(os.Stderr, "ladder: %s seed=%d laps=%d timed_rounds=%d (supports p%g) digest=%s accuracy=%.3f\n",
			w.name, *seed, res.Laps, res.Samples, res.Percentile, res.Digest, res.Accuracy)
		line, err := json.Marshal(res)
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(line))
		if res.Err != nil {
			fatal(res.Err)
		}
		return
	}

	if *out != "" {
		if err := os.MkdirAll(filepath.Dir(*out), 0o755); err != nil {
			fatal(err)
		}
	}
	rep, err := runReport(*seed, *seconds, *reps, *smoke, *out)
	rep.print(os.Stdout)
	if *out != "" {
		if werr := rep.write(*out); werr != nil {
			fatal(werr)
		}
	}
	if err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ladder:", err)
	os.Exit(1)
}

// newRunConfig sizes one run. The load comes from this process with at
// most nproc workers and connections.
func newRunConfig(w workload, seed int64, seconds float64, traced, smoke bool) runConfig {
	cfg := runConfig{
		w: w, sz: w.full, seed: seed, seconds: seconds, traced: traced,
		par:    runtime.GOMAXPROCS(0),
		prober: prober{samples: 200, budget: 1},
	}
	if smoke {
		cfg.sz = w.smoke
		cfg.prober = prober{samples: 3, budget: 0.01}
	}
	return cfg
}

// series is one end-to-end metric over the report's repetitions.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Q1     float64   `json:"q1"`
	Q3     float64   `json:"q3"`
}

// workloadReport is everything the report holds about one workload.
type workloadReport struct {
	Name           string             `json:"name"`
	Sizes          sizes              `json:"sizes"`
	Digests        []string           `json:"digests"` // one per repetition, in seed order
	TracedDigest   string             `json:"traced_digest"`
	Attempted      int                `json:"attempted"`
	Failed         int                `json:"failed"`
	Laps           int                `json:"laps"`
	RoundSamples   int                `json:"round_samples"`
	TopPercentile  float64            `json:"highest_supported_percentile"`
	EndToEnd       map[string]*series `json:"end_to_end"`
	PerLayer       map[string]metric  `json:"per_layer"`
	SpanFile       string             `json:"span_file,omitempty"`
	TracedAccuracy float64            `json:"accuracy"`
}

// report is the artifact of one full ladder run.
type report struct {
	Schema     string           `json:"schema"`
	Seed       int64            `json:"seed"`
	Reps       int              `json:"reps"`
	Seconds    float64          `json:"seconds"`
	Smoke      bool             `json:"smoke"`
	NProc      int              `json:"nproc"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GoVersion  string           `json:"go_version"`
	Commit     string           `json:"commit"`
	Workloads  []workloadReport `json:"workloads"`
}

const reportSchema = "floatfl-ladder/v1"

// commit is the revision the binary was built from, "+dirty" when the
// working tree had changes, "unknown" outside a git checkout.
func commit() string {
	rev, dirty := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch {
			case s.Key == "vcs.revision":
				rev = s.Value
			case s.Key == "vcs.modified" && s.Value == "true":
				dirty = "+dirty"
			}
		}
	}
	return rev + dirty
}

// runReport runs every workload `reps` times untraced and once traced,
// writing the traced run's spans beside out when out is set. It returns
// what it has together with the first output-check failure.
func runReport(seed int64, seconds float64, reps int, smoke bool, out string) (*report, error) {
	if reps < 1 {
		reps = 1
	}
	rep := &report{
		Schema: reportSchema, Seed: seed, Reps: reps, Seconds: seconds, Smoke: smoke,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: commit(),
	}
	for _, w := range workloads {
		wr := workloadReport{Name: w.name, EndToEnd: map[string]*series{}}
		for r := 0; r < reps; r++ {
			cfg := newRunConfig(w, seed+int64(r), seconds, false, smoke)
			wr.Sizes = cfg.sz
			res := measure(cfg)
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if res.Err != nil {
				rep.Workloads = append(rep.Workloads, wr)
				return rep, res.Err
			}
			wr.Digests = append(wr.Digests, res.Digest)
			wr.Laps, wr.RoundSamples, wr.TopPercentile = res.Laps, res.Samples, res.Percentile
			for _, d := range endToEnd {
				s := wr.EndToEnd[d.name]
				if s == nil {
					s = &series{Unit: d.unit}
					wr.EndToEnd[d.name] = s
				}
				s.Values = append(s.Values, res.Metrics[d.name].Value)
			}
		}
		for _, s := range wr.EndToEnd {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}

		cfg := newRunConfig(w, seed, seconds, true, smoke)
		if out != "" {
			cfg.traceOut = strings.TrimSuffix(out, ".json") + "-spans-" + w.name + ".jsonl"
		}
		res := measure(cfg)
		wr.PerLayer, wr.TracedDigest, wr.SpanFile, wr.TracedAccuracy = res.Metrics, res.Digest, cfg.traceOut, res.Accuracy
		rep.Workloads = append(rep.Workloads, wr)
		if res.Err != nil {
			return rep, res.Err
		}
		if res.Digest != wr.Digests[0] {
			return rep, fmt.Errorf("%s: traced run digest %s differs from untraced %s on seed %d",
				w.name, res.Digest, wr.Digests[0], seed)
		}
	}
	return rep, nil
}

// print writes every metric by name with its unit.
func (r *report) print(w *os.File) {
	fmt.Fprintf(w, "ladder seed=%d reps=%d seconds=%g nproc=%d GOMAXPROCS=%d %s commit=%s\n",
		r.Seed, r.Reps, r.Seconds, r.NProc, r.GOMAXPROCS, r.GoVersion, r.Commit)
	for _, wr := range r.Workloads {
		fmt.Fprintf(w, "\n== %s ==  client-rounds attempted=%d failed=%d  laps=%d  digest=%v traced=%s\n",
			wr.Name, wr.Attempted, wr.Failed, wr.Laps, wr.Digests, wr.TracedDigest)
		fmt.Fprintf(w, "   round percentiles over n=%d timed rounds (highest supported: p%g)\n",
			wr.RoundSamples, wr.TopPercentile)
		for _, d := range endToEnd {
			if s := wr.EndToEnd[d.name]; s != nil {
				fmt.Fprintf(w, "  %-34s %14.6g %-6s spread %.1f%% over %d\n",
					d.name, s.Median, s.Unit, 100*spreadShare(s.Values), len(s.Values))
			}
		}
		var idle []string
		for _, d := range perLayer {
			m, ok := wr.PerLayer[d.name]
			switch {
			case !ok:
			case m.Value == 0:
				idle = append(idle, d.name)
			default:
				fmt.Fprintf(w, "  %-34s %14.6g %s\n", d.name, m.Value, m.Unit)
			}
		}
		if len(idle) > 0 {
			fmt.Fprintf(w, "  0 (layer not entered by this workload): %s\n", strings.Join(idle, " "))
		}
	}
}

func (r *report) write(path string) error {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
