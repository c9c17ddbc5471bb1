package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"floatfl/internal/fl"
	"floatfl/internal/selection"
)

func TestHighestPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestPercentile(c.n); got != c.want {
			t.Errorf("highestPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestPercentileAndQuartiles(t *testing.T) {
	v := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if got := percentile(v, 50); got != 5.5 {
		t.Errorf("p50 = %g, want 5.5", got)
	}
	if got := percentile(v, 90); math.Abs(got-9.1) > 1e-12 {
		t.Errorf("p90 = %g, want 9.1", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %g, want 0", got)
	}
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q2, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles = %g %g %g, want 2.75 5.5 8.25", q1, q2, q3)
	}
	if got := spreadShare(v); math.Abs(got-1) > 1e-12 {
		t.Errorf("spreadShare = %g, want 1", got)
	}
}

func TestDropWarmup(t *testing.T) {
	if got := dropWarmup(make([]float64, warmupRounds)); len(got) != 0 {
		t.Errorf("a lap of only warm-up rounds keeps %d intervals", len(got))
	}
	in := []float64{9, 9, 9, 9, 9, 1, 2}
	if got := dropWarmup(in); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("dropWarmup(%v) = %v", in, got)
	}
}

func TestSelfTime(t *testing.T) {
	parent := interval{100, 200}
	for _, c := range []struct {
		name     string
		children []interval
		want     int64
	}{
		{"no children", nil, 100},
		{"nested", []interval{{110, 130}}, 80},
		{"adjacent", []interval{{100, 150}, {150, 200}}, 0},
		{"overlapping parallel steps", []interval{{110, 160}, {140, 180}}, 30},
		{"contained in a sibling", []interval{{110, 180}, {120, 130}}, 30},
		{"sticking out of the parent", []interval{{50, 120}, {190, 400}}, 70},
		{"outside the parent", []interval{{0, 50}, {300, 400}}, 100},
	} {
		if got := selfTime(parent, c.children); got != c.want {
			t.Errorf("%s: self time %d, want %d", c.name, got, c.want)
		}
	}
}

func TestRecorderSelfSeconds(t *testing.T) {
	r := &recorder{workload: "w"}
	root := r.add("fl", "round", 0, 7, 0, 1000, -1)
	phase := r.add("fl", "dispatch", 0, 7, 100, 600, root)
	r.add("core", "decide", 0, 7, 100, 200, phase)
	r.add("core", "decide", 0, 7, 300, 400, phase)
	if got := r.selfSeconds("fl", "dispatch"); len(got) != 1 || math.Abs(got[0]-300e-9) > 1e-15 {
		t.Errorf("dispatch self = %v, want [3e-07]", got)
	}
	if got := r.selfSeconds("fl", "round"); len(got) != 1 || math.Abs(got[0]-500e-9) > 1e-15 {
		t.Errorf("round self = %v, want [5e-07]", got)
	}
	var buf bytes.Buffer
	if err := r.writeJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 {
		t.Fatalf("%d span lines, want 4", len(lines))
	}
	var s span
	if err := json.Unmarshal([]byte(lines[2]), &s); err != nil {
		t.Fatal(err)
	}
	if s.Workload != "w" || s.Layer != "core" || s.Name != "decide" || s.Round != 7 || s.Parent != phase {
		t.Errorf("span line decodes to %+v", s)
	}
}

func readBench(t *testing.T) *benchmarkFile {
	t.Helper()
	bf, err := readBenchmarkFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	return bf
}

// TestBenchmarkFileMatchesTables pins BENCHMARK.json to the tables the
// program reports from: same names, units and directions, in any order.
func TestBenchmarkFileMatchesTables(t *testing.T) {
	bf := readBench(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	declared := map[string]metricDef{}
	for _, m := range bf.EndToEnd {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better}
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range bf.PerLayer {
		declared[m.Name] = metricDef{m.Name, m.Unit, m.Better}
	}
	if len(declared) != len(bf.EndToEnd)+len(bf.PerLayer) {
		t.Error("a metric name is used twice in BENCHMARK.json")
	}
	tables := append(append([]metricDef(nil), endToEnd...), perLayer...)
	if len(tables) != len(declared) {
		t.Errorf("tables hold %d metrics, BENCHMARK.json %d", len(tables), len(declared))
	}
	for _, d := range tables {
		if !name.MatchString(d.name) {
			t.Errorf("metric name %q does not match %s", d.name, name)
		}
		if got, ok := declared[d.name]; !ok || got != d {
			t.Errorf("metric %s: BENCHMARK.json has %+v, the program %+v", d.name, got, d)
		}
	}
	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
}

// TestSmokeEmitsEveryMetric runs every workload at smoke scale, untraced
// and traced, and checks that each metric BENCHMARK.json names comes out
// exactly once with its unit and a finite value.
func TestSmokeEmitsEveryMetric(t *testing.T) {
	bf := readBench(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := newRunConfig(w, 3, 0.2, traced, true)
			res := measure(cfg)
			if res.Err != nil || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d err=%v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, res.Err)
			}
			want := map[string]string{}
			if traced {
				for _, m := range bf.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range bf.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, want %d", w.name, traced, len(res.Metrics), len(want))
			}
			for name, unit := range want {
				m, ok := res.Metrics[name]
				if !ok {
					t.Errorf("%s traced=%v: metric %s is missing", w.name, traced, name)
					continue
				}
				if m.Unit != unit {
					t.Errorf("%s: %s has unit %q, want %q", w.name, name, m.Unit, unit)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: %s is %v", w.name, name, m.Value)
				}
				if !traced && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, want > 0", w.name, name, m.Value)
				}
			}
			// The result line is exactly the contract's four keys.
			line, err := json.Marshal(res)
			if err != nil {
				t.Fatal(err)
			}
			var keys map[string]json.RawMessage
			if err := json.Unmarshal(line, &keys); err != nil {
				t.Fatal(err)
			}
			if len(keys) != 4 {
				t.Errorf("result line has keys %v", keys)
			}
		}
	}
}

// TestTracingDoesNotChangeTheWork runs one tiny lap of each simulator
// workload untraced and traced: the digests must agree. The lazy lap also
// proves selSeam forwards LazySelector, without which the engine refuses a
// lazy population.
func TestTracingDoesNotChangeTheWork(t *testing.T) {
	for _, w := range workloads[:3] {
		cfg := newRunConfig(w, 5, 0, true, true) // traced: laps 0 and 1 share their inputs
		plain, err := runLap(cfg, 1, nil)
		if err != nil {
			t.Fatalf("%s untraced: %v", w.name, err)
		}
		rec := &recorder{workload: w.name}
		traced, err := runLap(cfg, 0, rec)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		if plain.out.digest != traced.out.digest {
			t.Errorf("%s: traced digest %s, untraced %s", w.name, traced.out.digest, plain.out.digest)
		}
		if len(rec.spans) == 0 || traced.kernelN == 0 {
			t.Errorf("%s: traced lap recorded %d spans and %d kernel calls", w.name, len(rec.spans), traced.kernelN)
		}
		if n := len(plain.intervals()); n != cfg.sz.Rounds {
			t.Errorf("%s: %d round intervals for %d rounds", w.name, n, cfg.sz.Rounds)
		}
	}
}

// TestSeamsForwardCheckpointState snapshots a run through the seams and a
// run on the bare selector and controller: the snapshot carries selector
// state, controller state and the controller's timeline series, so equal
// bytes mean Stateful and TimelineContributor both pass through.
func TestSeamsForwardCheckpointState(t *testing.T) {
	w, _ := lookupWorkload("sync-train")
	sz := w.smoke
	const seed = 11
	snapshot := func(seams bool) []byte {
		p, err := eagerPopulation(sz, seed)
		if err != nil {
			t.Fatal(err)
		}
		l := newLap(0, false, nil)
		l.begin()
		cfg := simConfig(l, sz, seed, 1)
		obsChannels(&cfg)
		var last []byte
		cfg.Checkpoint.Every = sz.Rounds
		cfg.Checkpoint.Sink = func(b []byte) error { last = b; return nil }
		sel := selection.NewRandom(seed + 10)
		ctrl := floatController(sz, seed, cfg.Metrics)
		if seams {
			_, err = fl.RunSyncPop(p, &selSeam{sel, l}, &ctrlSeam{ctrl, l}, cfg)
		} else {
			_, err = fl.RunSyncPop(p, sel, ctrl, cfg)
		}
		if err != nil {
			t.Fatal(err)
		}
		return last
	}
	bare, through := snapshot(false), snapshot(true)
	if len(bare) == 0 || !bytes.Equal(bare, through) {
		t.Errorf("snapshot through the seams (%d bytes) differs from the bare run's (%d bytes)", len(through), len(bare))
	}
}

func TestCompareReports(t *testing.T) {
	dir := t.TempDir()
	bench := filepath.Join(dir, "BENCHMARK.json")
	if err := os.WriteFile(bench, []byte(`{"end_to_end":[
		{"name":"round_s_p50","unit":"s","better":"lower","bound":0.1},
		{"name":"client_rounds_per_s","unit":"1/s","better":"higher","bound":0.1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	write := func(name string, round, rate []float64, failed int) string {
		rep := report{Schema: reportSchema, Workloads: []workloadReport{{
			Name: "sync-train", Attempted: 100, Failed: failed,
			EndToEnd: map[string]*series{
				"round_s_p50":         {Unit: "s", Values: round},
				"client_rounds_per_s": {Unit: "1/s", Values: rate},
			},
		}}}
		for _, s := range rep.Workloads[0].EndToEnd {
			s.Q1, s.Median, s.Q3 = quartiles(s.Values)
		}
		path := filepath.Join(dir, name)
		if err := rep.write(path); err != nil {
			t.Fatal(err)
		}
		return path
	}
	steady := []float64{1, 1.01, 0.99, 1, 1.02, 0.98, 1, 1, 1.01, 0.99}
	scale := func(v []float64, k float64) []float64 {
		out := make([]float64, len(v))
		for i, x := range v {
			out[i] = x * k
		}
		return out
	}
	noisy := []float64{0.7, 1.3, 0.8, 1.2, 1, 0.75, 1.25, 1, 0.9, 1.1}
	base := write("old.json", steady, steady, 0)
	for _, c := range []struct {
		name   string
		path   string
		ok     bool
		expect string
	}{
		{"same", write("same.json", steady, steady, 0), true, "2 within bound, 0 unresolved, 0 regressed"},
		{"slower rounds", write("slow.json", scale(steady, 1.2), steady, 0), false, "1 within bound, 0 unresolved, 1 regressed"},
		{"lower throughput", write("rate.json", steady, scale(steady, 0.8), 0), false, "1 within bound, 0 unresolved, 1 regressed"},
		{"faster", write("fast.json", scale(steady, 0.5), scale(steady, 2), 0), true, "2 within bound, 0 unresolved, 0 regressed"},
		{"noisy", write("noisy.json", noisy, steady, 0), true, "1 within bound, 1 unresolved, 0 regressed"},
		{"more failures", write("failed.json", steady, steady, 3), false, "failed client-rounds rose"},
	} {
		var out bytes.Buffer
		ok, err := compareReports(&out, bench, base, c.path)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if ok != c.ok || !strings.Contains(out.String(), c.expect) {
			t.Errorf("%s: ok=%v, want %v with %q in:\n%s", c.name, ok, c.ok, c.expect, out.String())
		}
	}
}
