package main

import (
	"fmt"
	"os"
	"runtime"
)

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricDef declares a metric the way BENCHMARK.json does.
type metricDef struct {
	name, unit, better string
}

// endToEnd lists the metrics every untraced run reports. failed_share of
// the issue is reported as its complement ok_share, because the contract
// wants metrics that are never 0; failures are also in the result line's
// attempted/failed counts. round_s_p90 is reported with the per-layer
// metrics: on the sizing box its spread over ten runs reached 44 %, wider
// than any bound the contract allows an end-to-end metric.
var endToEnd = []metricDef{
	{"client_rounds_per_s", "1/s", "higher"},
	{"round_s_p50", "s", "lower"},
	{"cpu_ms_per_client_round", "ms", "lower"},
	{"alloc_kb_per_client_round", "KB", "lower"},
	{"heap_live_peak_mb", "MB", "lower"},
	{"setup_s", "s", "lower"},
	{"ok_share", "ratio", "higher"},
}

// runConfig is one measured run of one workload.
type runConfig struct {
	w        workload
	sz       sizes
	seed     int64
	seconds  float64
	traced   bool
	par      int
	prober   prober
	traceOut string // span file, written when the traced run ends ("" = keep in memory only)
}

// runResult is what a run reports: the contract's result line plus what
// the full report prints beside it.
type runResult struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	Digest     string  `json:"-"`
	Accuracy   float64 `json:"-"`
	Laps       int     `json:"-"`
	Samples    int     `json:"-"` // timed round intervals behind round_s_p50/p90
	Percentile float64 `json:"-"` // highest percentile Samples supports
	Err        error   `json:"-"`
}

// lapSeed derives the inputs of one lap from the run's seed. Every lap of
// an untraced run gets inputs of its own, so a run's medians average over
// several input sets instead of inheriting the luck of one; a traced run's
// laps come in pairs on the same inputs, one traced and one not.
func lapSeed(cfg runConfig, idx int) int64 {
	if cfg.traced {
		idx /= 2
	}
	return cfg.seed*1000 + int64(idx)
}

// runLap sets up and runs one lap of w from a collected heap, so laps do
// not inherit each other's garbage.
func runLap(cfg runConfig, idx int, rec *recorder) (*lap, error) {
	runtime.GC()
	l := newLap(idx, cfg.w.async, rec)
	out, err := cfg.w.lap(l, cfg.sz, lapSeed(cfg, idx), cfg.par)
	l.finish()
	l.out = out
	if err != nil {
		return l, err
	}
	if !l.started {
		return l, fmt.Errorf("lap never reached its first seam call")
	}
	if out.acc < cfg.sz.Floor {
		return l, fmt.Errorf("accuracy %.3f is below the floor %.3f", out.acc, cfg.sz.Floor)
	}
	return l, nil
}

// measure runs laps of one workload for cfg.seconds and reports. An
// untraced run measures the end-to-end metrics. A traced run alternates
// traced and untraced laps of the same work, so tracing overhead and the
// traced≡untraced digest check come from one process and one stretch of
// time, and reports the per-layer metrics.
func measure(cfg runConfig) runResult {
	res := runResult{Metrics: map[string]metric{}}
	rec := &recorder{workload: cfg.w.name}
	var plain, traced []*lap
	var pairDigest string
	t0 := now()
	for i := 0; ; i++ {
		lapTraced := cfg.traced && i%2 == 0
		var r *recorder
		if lapTraced {
			r = rec
		}
		st, err := runLap(cfg, i, r)
		res.Attempted += st.out.clientRounds
		res.Failed += st.out.failed
		if err == nil && cfg.traced && i%2 == 1 && st.out.digest != pairDigest {
			err = fmt.Errorf("untraced digest %s differs from the traced lap's %s on the same inputs: tracing changed the work",
				st.out.digest, pairDigest)
		}
		pairDigest = st.out.digest
		if err != nil {
			res.Err = fmt.Errorf("%s lap %d: %w", cfg.w.name, i, err)
			if res.Attempted == 0 {
				res.Attempted = 1
			}
			if res.Failed == 0 {
				res.Failed = res.Attempted
			}
			return res
		}
		if i == 0 {
			// Lap 0's inputs depend on the seed alone, not on how many laps
			// the machine fits into the run: its digest is the run's.
			res.Digest, res.Accuracy = st.out.digest, st.out.acc
		}
		if lapTraced {
			traced = append(traced, st)
		} else {
			plain = append(plain, st)
		}
		res.Laps++
		if cfg.traced && i%2 == 0 {
			continue // finish the pair
		}
		elapsed := now().Sub(t0).Seconds()
		if elapsed+elapsed/float64(i+1)/2 > cfg.seconds {
			break
		}
	}

	for _, st := range plain {
		res.Samples += len(dropWarmup(st.intervals()))
	}
	res.Percentile = highestPercentile(res.Samples)
	if cfg.traced {
		layerMetrics(cfg, rec, plain, traced, res.Metrics)
		if cfg.traceOut != "" {
			if err := writeSpans(rec, cfg.traceOut); err != nil {
				res.Err = err
				return res
			}
		}
	} else {
		endToEndMetrics(plain, &res)
	}
	res.Correct = res.Failed == 0
	if !res.Correct {
		res.Err = fmt.Errorf("%s: %d of %d client-rounds failed", cfg.w.name, res.Failed, res.Attempted)
	}
	return res
}

// granted is the share of the CPU time the lap asked for that the machine
// gave it: cpu ÷ (cpu + steal), steal being the time the hypervisor kept
// runnable virtual CPUs waiting (0 on a machine that does not report it, so
// the share is 1). Wall-clock metrics are multiplied by it: on the shared
// two-core box the ladder was sized on, steal moved between 2 % and 25 % of
// a lap and explained most of the run-to-run spread of raw wall time.
func (l *lap) granted() float64 {
	if l.cpuS <= 0 {
		return 1
	}
	return l.cpuS / (l.cpuS + l.stealS)
}

// roundSeconds returns the lap's timed round intervals in granted seconds.
func (l *lap) roundSeconds() []float64 {
	iv := dropWarmup(l.intervals())
	out := make([]float64, len(iv))
	for i, x := range iv {
		out[i] = x * l.granted()
	}
	return out
}

// goodQuartile reduces one value per lap to the run's value: the quartile
// of the laps on the metric's good side. Interference from other tenants
// only ever takes time away, so the better laps are the ones that measure
// the code; a quartile rather than the best lap keeps one lucky lap from
// deciding the run.
func goodQuartile(laps []*lap, better string, f func(*lap) float64) float64 {
	v := make([]float64, len(laps))
	for i, st := range laps {
		v[i] = f(st)
	}
	if better == "higher" {
		return percentile(sortedCopy(v), 75)
	}
	return percentile(sortedCopy(v), 25)
}

// perLap computes the lap-level value behind each timing and memory metric.
var perLap = map[string]func(*lap) float64{
	"client_rounds_per_s":       func(s *lap) float64 { return float64(s.out.clientRounds) / (s.timedS * s.granted()) },
	"round_s_p50":               func(s *lap) float64 { return percentile(sortedCopy(s.roundSeconds()), 50) },
	"round_s_p90":               func(s *lap) float64 { return percentile(sortedCopy(s.roundSeconds()), 90) },
	"cpu_ms_per_client_round":   func(s *lap) float64 { return s.cpuS * 1e3 / float64(s.out.clientRounds) },
	"alloc_kb_per_client_round": func(s *lap) float64 { return s.allocB / 1024 / float64(s.out.clientRounds) },
	"heap_live_peak_mb":         func(s *lap) float64 { return float64(s.heapPeak) / (1 << 20) },
}

func endToEndMetrics(laps []*lap, res *runResult) {
	for _, d := range endToEnd {
		if f, ok := perLap[d.name]; ok {
			res.Metrics[d.name] = metric{goodQuartile(laps, d.better, f), d.unit}
		}
	}
	// Set-up does the same work every lap and is too short (tens of
	// milliseconds) to correct for steal, whose clock ticks in 10 ms: the
	// least disturbed lap is its steadiest estimate.
	setup := laps[0].setupS
	for _, st := range laps {
		if st.setupS < setup {
			setup = st.setupS
		}
	}
	res.Metrics["setup_s"] = metric{setup, "s"}
	res.Metrics["ok_share"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
}

func writeSpans(rec *recorder, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := rec.writeJSONL(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
