// Package experiment wires the full stack together into one named,
// reproducible experiment per figure of the paper's evaluation. The same
// functions back the floatsim and floatbench CLIs and the repository's
// bench suite, so every consumer prints identical rows.
//
// Each experiment accepts a Scale: Quick (seconds, CI-friendly) keeps the
// paper's shapes; Paper matches the published configuration (200 clients,
// 30 per round, 300 rounds) and runs in minutes on a laptop CPU.
package experiment

import (
	"fmt"
	"io"
	"strings"

	"floatfl/internal/core"
	"floatfl/internal/fl"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// Scale dials the size of every experiment.
type Scale struct {
	Clients  int
	Rounds   int
	PerRound int
	Epochs   int
	BatchSz  int
	Seed     int64
	// AsyncConcurrency and AsyncBuffer configure FedBuff runs.
	AsyncConcurrency int
	AsyncBuffer      int
	// Parallelism is the per-round client-execution worker count handed to
	// fl.Config.Parallelism. Results are bit-identical for every value;
	// <= 0 defaults to runtime.NumCPU().
	Parallelism int
	// Metrics and Tracer, when non-nil, receive the engine's telemetry
	// (fl.Config.Metrics / fl.Config.Tracer); nil keeps runs
	// instrumentation-free with zero overhead.
	Metrics *obs.Registry
	Tracer  *obs.Tracer
	// Timeline, when non-nil, receives one delta-encoded sample of Metrics
	// plus per-round engine facts at every end-of-round boundary
	// (fl.Config.Timeline). Requires Metrics to be useful; nil disables
	// sampling.
	Timeline *obs.Timeline
	// Lazy derives client state on demand from (seed, clientID) instead of
	// materializing the whole population up front, bounding memory to the
	// working-set cache plus the per-round selection — the only feasible
	// mode at million-client scale. Requires a lazy-capable selector (all
	// built-ins qualify).
	Lazy bool
	// CacheClients bounds the lazy device working set (<= 0 defaults to
	// 4096; shards are derived per job, never cached). Ignored when Lazy is
	// false.
	CacheClients int
	// EvalClients caps the final per-client evaluation sweep (<= 0
	// evaluates everyone — the classic behavior, infeasible at scale).
	EvalClients int
	// Checkpoint, when non-nil, threads crash-safe snapshot/resume hooks
	// into the run (fl.Config.Checkpoint). Nil keeps the engines on the
	// zero-overhead path used by every published figure and bench.
	Checkpoint *fl.CheckpointConfig
}

// Quick is a CI-sized scale that preserves the figures' shapes.
var Quick = Scale{
	Clients: 40, Rounds: 30, PerRound: 10, Epochs: 2, BatchSz: 16,
	Seed: 42, AsyncConcurrency: 20, AsyncBuffer: 8,
}

// Paper mirrors the published evaluation configuration (Section 6.1).
var Paper = Scale{
	Clients: 200, Rounds: 300, PerRound: 30, Epochs: 5, BatchSz: 20,
	Seed: 42, AsyncConcurrency: 100, AsyncBuffer: 30,
}

// ScaleByName returns the named scale: "quick" or "paper".
func ScaleByName(name string) (Scale, error) {
	switch name {
	case "quick":
		return Quick, nil
	case "paper":
		return Paper, nil
	}
	return Scale{}, fmt.Errorf("unknown scale %q (quick | paper)", name)
}

// Table is one printable result block (a figure panel or table).
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// Fprint renders the table as aligned text.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== %s ==\n", t.Title)
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	printRow := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	printRow(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	printRow(sep)
	for _, row := range t.Rows {
		printRow(row)
	}
	fmt.Fprintln(w)
}

// f2 formats a float with two decimals; f1/f3 vary precision.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }
func f3(x float64) string { return fmt.Sprintf("%.3f", x) }
func d(x int) string      { return fmt.Sprintf("%d", x) }

// archFor maps datasets to the paper's model choice: ShuffleNet for
// OpenImage (matching [2, 39]), ResNet-34 elsewhere (Section 6.1).
func archFor(dataset string) string {
	if dataset == "openimage" {
		return "shufflenet"
	}
	return "resnet34"
}

// RunSpec describes one training run within an experiment.
type RunSpec struct {
	Dataset  string
	Algo     string // fedavg | oort | refl | fedbuff
	Float    bool   // wrap with the FLOAT controller
	FloatCfg *rl.Config
	// FloatPerClient trains one Q-table per client (privacy mode).
	FloatPerClient bool
	Heur           bool   // use the heuristic controller instead
	Static         string // non-empty: use a static technique controller
	Alpha          float64
	Scenario       trace.Scenario
	Arch           string // override archFor(Dataset)
	// FourGOnly forces a 4G-only population (the "unstable network"
	// scenario of Fig 10c).
	FourGOnly bool
	// Logger receives structured per-round events (nil discards them).
	Logger fl.RoundLogger
	// DeadlinePercentile overrides the default 60.
	DeadlinePercentile float64
	SeedOffset         int64
}

// Run executes one training run at the given scale.
func Run(sc Scale, spec RunSpec) (*fl.Result, error) {
	res, _, err := RunWithController(sc, spec)
	return res, err
}

func controllerFor(sc Scale, spec RunSpec, seed int64) (fl.Controller, error) {
	switch {
	case spec.Float:
		agentCfg := rl.Config{Seed: seed + 2, TotalRounds: sc.Rounds}
		if spec.FloatCfg != nil {
			agentCfg = *spec.FloatCfg
			if agentCfg.TotalRounds == 0 {
				agentCfg.TotalRounds = sc.Rounds
			}
			if agentCfg.Seed == 0 {
				agentCfg.Seed = seed + 2
			}
		}
		return core.New(core.Config{
			Agent:           agentCfg,
			BatchSize:       sc.BatchSz,
			Epochs:          sc.Epochs,
			ClientsPerRound: sc.PerRound,
			PerClient:       spec.FloatPerClient,
			Metrics:         sc.Metrics,
		}), nil
	case spec.Heur:
		return core.NewHeuristic(seed + 3), nil
	case spec.Static != "":
		tech, err := opt.Parse(spec.Static)
		if err != nil {
			return nil, err
		}
		return fl.StaticController{Tech: tech}, nil
	default:
		return fl.NoOpController{}, nil
	}
}

func selectorFor(algo string, seed int64) (selection.Selector, error) {
	switch algo {
	case "fedavg", "fedprox", "":
		return selection.NewRandom(seed + 10), nil
	case "oort":
		return selection.NewOort(seed + 11), nil
	case "refl":
		return selection.NewREFL(seed + 12), nil
	default:
		return nil, fmt.Errorf("experiment: unknown algorithm %q", algo)
	}
}
