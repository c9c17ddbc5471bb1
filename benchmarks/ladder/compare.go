package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
)

// benchmarkFile is the part of BENCHMARK.json the ladder reads back.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

// findBenchmarkFile looks for BENCHMARK.json in the working directory and
// its parents: the ladder runs from the repository root or from its own
// directory.
func findBenchmarkFile() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		p := filepath.Join(dir, "BENCHMARK.json")
		if _, err := os.Stat(p); err == nil {
			return p, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("BENCHMARK.json not found above the working directory")
		}
		dir = parent
	}
}

func readBenchmarkFile(path string) (*benchmarkFile, error) {
	if path == "" {
		var err error
		if path, err = findBenchmarkFile(); err != nil {
			return nil, err
		}
	}
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &bf, nil
}

func readReport(path string) (*report, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r report
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != reportSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, reportSchema)
	}
	return &r, nil
}

// verdict judges one (metric, workload) pair. worse is the share of the
// old median by which the new median is worse (negative: better). A spread
// wider than the bound leaves the pair unresolved — except for setup_s,
// whose spread the benchmark contract does not judge: set-up lasts tens of
// milliseconds, and only its median has to hold.
func verdict(name, better string, bound float64, old, new *series) (worse float64, status string) {
	if old.Median == 0 {
		return 0, "unresolved"
	}
	worse = new.Median/old.Median - 1
	if better == "higher" {
		worse = -worse
	}
	spread := spreadShare(old.Values)
	if s := spreadShare(new.Values); s > spread {
		spread = s
	}
	switch {
	case worse > bound:
		return worse, "regressed"
	case spread > bound && name != "setup_s":
		return worse, "unresolved"
	}
	return worse, "within bound"
}

// compareReports prints one row per (end-to-end metric, workload) with
// both medians, their ratio (base: old) and the verdict against the bound
// in BENCHMARK.json. It reports false on any regression or on a higher
// share of failed client-rounds.
func compareReports(w io.Writer, benchPath, oldPath, newPath string) (bool, error) {
	bf, err := readBenchmarkFile(benchPath)
	if err != nil {
		return false, err
	}
	oldRep, err := readReport(oldPath)
	if err != nil {
		return false, err
	}
	newRep, err := readReport(newPath)
	if err != nil {
		return false, err
	}
	byName := map[string]workloadReport{}
	for _, wr := range newRep.Workloads {
		byName[wr.Name] = wr
	}
	ok := true
	counts := map[string]int{}
	fmt.Fprintf(w, "%-14s %-26s %14s %14s %9s %8s %7s  %s\n",
		"workload", "metric", "old", "new", "new/old", "worse", "bound", "verdict")
	for _, ow := range oldRep.Workloads {
		nw, found := byName[ow.Name]
		if !found {
			return false, fmt.Errorf("%s: workload %s is missing", newPath, ow.Name)
		}
		for _, m := range bf.EndToEnd {
			o, n := ow.EndToEnd[m.Name], nw.EndToEnd[m.Name]
			if o == nil || n == nil {
				return false, fmt.Errorf("metric %s is missing for workload %s", m.Name, ow.Name)
			}
			worse, status := verdict(m.Name, m.Better, m.Bound, o, n)
			counts[status]++
			if status == "regressed" {
				ok = false
			}
			fmt.Fprintf(w, "%-14s %-26s %14.6g %14.6g %9.4f %+7.1f%% %6.1f%%  %s (spread %.1f%%/%.1f%%, n=%d/%d)\n",
				ow.Name, m.Name, o.Median, n.Median, n.Median/o.Median, 100*worse, 100*m.Bound, status,
				100*spreadShare(o.Values), 100*spreadShare(n.Values), len(o.Values), len(n.Values))
		}
		if failedShare(nw) > failedShare(ow) {
			ok = false
			fmt.Fprintf(w, "%-14s failed client-rounds rose: %d/%d -> %d/%d\n",
				ow.Name, ow.Failed, ow.Attempted, nw.Failed, nw.Attempted)
		}
	}
	fmt.Fprintf(w, "\n%d within bound, %d unresolved, %d regressed\n",
		counts["within bound"], counts["unresolved"], counts["regressed"])
	return ok, nil
}

func failedShare(wr workloadReport) float64 {
	if wr.Attempted == 0 {
		return 0
	}
	return float64(wr.Failed) / float64(wr.Attempted)
}
