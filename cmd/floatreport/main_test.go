package main

import (
	"bytes"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"floatfl/internal/report"
)

// floatreport reads what floatsim -out writes, so TestMain builds both
// binaries once and makes one FLOAT run directory the tests share.
var floatreportBin, runDir string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "floatreport-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	floatreportBin = filepath.Join(dir, "floatreport")
	floatsimBin := filepath.Join(dir, "floatsim")
	for bin, pkg := range map[string]string{floatreportBin: ".", floatsimBin: "../floatsim"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			return 1
		}
	}
	runDir = filepath.Join(dir, "run")
	if out, err := exec.Command(floatsimBin, "-controller", "float", "-clients", "20", "-per-round", "5",
		"-rounds", "6", "-out", runDir).CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "floatsim: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// run executes floatreport with args and returns its stdout and exit code.
func run(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(floatreportBin, args...)
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("floatreport %v: %v", args, err)
		}
		return out.String(), exit.ExitCode()
	}
	return out.String(), 0
}

// TestPrintsEveryView: a run directory with a log, a trace and an agent
// prints all three views, in that order.
func TestPrintsEveryView(t *testing.T) {
	out, code := run(t, "-trend", "-states", runDir)
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	at := -1
	for _, heading := range []string{
		"client-rounds:",                 // log summary
		"per-round completion fraction:", // -trend
		"phase time breakdown:",          // trace summary
		"per-action learned objectives",  // agent summary
		"per-state greedy policy",        // -states
	} {
		i := strings.Index(out, heading)
		if i < 0 {
			t.Fatalf("output lacks %q:\n%s", heading, out)
		}
		if i < at {
			t.Errorf("%q is out of order", heading)
		}
		at = i
	}
}

// TestCSVIsOnlyCSV: -csv prints the policy CSV and nothing before it.
func TestCSVIsOnlyCSV(t *testing.T) {
	out, code := run(t, "-csv", runDir)
	if code != 0 {
		t.Fatalf("exited %d", code)
	}
	records, err := csv.NewReader(strings.NewReader(out)).ReadAll()
	if err != nil {
		t.Fatalf("-csv output does not parse: %v", err)
	}
	if got := strings.Join(records[0], ","); got != "gb,ge,gk,cpu,mem,net,hf,action,q,visits" {
		t.Errorf("first record %q is not the header", got)
	}
	if len(records) < 2 {
		t.Error("-csv printed no policy rows")
	}
}

// TestExitCodes: a directory with none of the three views exits 1, a
// missing argument exits 2, and diff exits 0 on equal timelines, 1 on
// different ones and 2 when a directory has no timeline.
func TestExitCodes(t *testing.T) {
	empty := t.TempDir()
	other := t.TempDir()
	tl, err := os.ReadFile(filepath.Join(runDir, report.TimelineFile))
	if err != nil {
		t.Fatal(err)
	}
	// Same header, first sample only: the runs diverge after round 0.
	lines := strings.SplitAfterN(string(tl), "\n", 3)
	if err := os.WriteFile(filepath.Join(other, report.TimelineFile), []byte(lines[0]+lines[1]), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		args []string
		want int
	}{
		{[]string{empty}, 1},
		{[]string{"-csv", empty}, 1},
		{nil, 2},
		{[]string{runDir, empty}, 2},
		{[]string{"diff", runDir, runDir}, 0},
		{[]string{"diff", runDir, other}, 1},
		{[]string{"diff", runDir, empty}, 2},
		{[]string{"diff", runDir}, 2},
	} {
		if _, code := run(t, tc.args...); code != tc.want {
			t.Errorf("floatreport %v exited %d, want %d", tc.args, code, tc.want)
		}
	}
}
