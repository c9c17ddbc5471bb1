package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"floatfl/internal/report"
)

// The CLI determinism contract — resume through a snapshot file in a new
// process, and a timeline export that does not depend on -parallel — is
// only observable from outside the process, so TestMain builds floatsim
// and floatreport once and the tests run them as subprocesses.
var floatsimBin, floatreportBin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "floatsim-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	floatsimBin, floatreportBin = filepath.Join(dir, "floatsim"), filepath.Join(dir, "floatreport")
	for bin, pkg := range map[string]string{floatsimBin: ".", floatreportBin: "../floatreport"} {
		if out, err := exec.Command("go", "build", "-o", bin, pkg).CombinedOutput(); err != nil {
			fmt.Fprintf(os.Stderr, "go build %s: %v\n%s", pkg, err, out)
			return 1
		}
	}
	return m.Run()
}

// cliRun is the experiment both contracts run. The heuristic controller,
// because the float agent's exploration schedule is a function of -rounds:
// a 3-round prefix would be a different experiment than rounds 0-2 of a
// 6-round run, which resume rejects with a typed CompatError.
var cliRun = []string{"-dataset", "femnist", "-algo", "fedavg", "-controller", "heuristic", "-clients", "24", "-per-round", "5"}

// floatsim runs one experiment with extra flags and fails the test on a
// nonzero exit.
func floatsim(t *testing.T, args ...string) {
	t.Helper()
	var stderr bytes.Buffer
	cmd := exec.Command(floatsimBin, append(append([]string(nil), cliRun...), args...)...)
	cmd.Stderr = &stderr
	if err := cmd.Run(); err != nil {
		t.Fatalf("floatsim %v: %v\n%s", args, err, stderr.Bytes())
	}
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestResumeMatchesUninterrupted: run-6 must equal run-3 with a periodic
// snapshot, then a new-process -resume of the same 6-round command from
// that snapshot — the JSONL log as prefix + tail, and the metrics
// exposition byte for byte. The resume writes into the directory it
// resumes from, replacing the prefix run's files.
func TestResumeMatchesUninterrupted(t *testing.T) {
	full, run := t.TempDir(), t.TempDir()
	floatsim(t, "-rounds", "6", "-out", full)
	floatsim(t, "-rounds", "3", "-checkpoint-every", "3", "-out", run)
	prefixLog := read(t, filepath.Join(run, report.LogFile))
	floatsim(t, "-rounds", "6", "-resume", filepath.Join(run, report.SnapshotFile), "-out", run)

	if !bytes.Equal(read(t, filepath.Join(run, report.MetricsFile)), read(t, filepath.Join(full, report.MetricsFile))) {
		t.Error("resumed metrics exposition differs from the uninterrupted run's")
	}
	if !bytes.Equal(append(prefixLog, read(t, filepath.Join(run, report.LogFile))...), read(t, filepath.Join(full, report.LogFile))) {
		t.Error("prefix + resumed training log differs from the uninterrupted run's")
	}
}

// TestTimelineParallelismInvariant: the timeline export is identical at
// -parallel 1 and 8, and floatreport diff says so with exit 0 — and flags
// a different seed with exit 1.
func TestTimelineParallelismInvariant(t *testing.T) {
	p1, p8, seed99 := t.TempDir(), t.TempDir(), t.TempDir()
	floatsim(t, "-rounds", "6", "-parallel", "1", "-out", p1)
	floatsim(t, "-rounds", "6", "-parallel", "8", "-out", p8)
	floatsim(t, "-rounds", "6", "-parallel", "1", "-seed", "99", "-out", seed99)

	if !bytes.Equal(read(t, filepath.Join(p1, report.TimelineFile)), read(t, filepath.Join(p8, report.TimelineFile))) {
		t.Error("timeline export differs between -parallel 1 and -parallel 8")
	}
	for _, tc := range []struct {
		b    string
		want int
	}{{p8, 0}, {seed99, 1}} {
		code := 0
		if err := exec.Command(floatreportBin, "diff", p1, tc.b).Run(); err != nil {
			var exit *exec.ExitError
			if !errors.As(err, &exit) {
				t.Fatal(err)
			}
			code = exit.ExitCode()
		}
		if code != tc.want {
			t.Errorf("floatreport diff %s %s exited %d, want %d", p1, tc.b, code, tc.want)
		}
	}
}

// TestNonFiniteFlagsFail: a NaN -alpha (eager or -lazy) or -deadline-pct,
// a -alpha <= 0, a -deadline-pct outside [0, 100], a negative count or an
// unknown static technique must exit non-zero within seconds with an error
// naming the value on stderr — not hang in the Dirichlet sampler, panic in
// the percentile, or run the defaults (or no controller) in the value's
// place. Each case's flags follow the harness's -rounds 1, so they
// override it.
func TestNonFiniteFlagsFail(t *testing.T) {
	for _, tc := range []struct {
		args []string
		want string
	}{
		{[]string{"-alpha", "NaN"}, "Alpha"},
		{[]string{"-alpha", "NaN", "-lazy"}, "Alpha"},
		{[]string{"-deadline-pct", "NaN"}, "DeadlinePercentile"},
		{[]string{"-alpha", "0"}, "-alpha 0"},
		{[]string{"-alpha", "-1"}, "-alpha -1"},
		{[]string{"-deadline-pct", "-5"}, "-deadline-pct -5"},
		{[]string{"-deadline-pct", "150"}, "-deadline-pct 150"},
		{[]string{"-rounds", "-1"}, "-rounds -1"},
		{[]string{"-clients", "-5"}, "-clients -5"},
		{[]string{"-per-round", "-3"}, "-per-round -3"},
		{[]string{"-seeds", "-2"}, "-seeds -2"},
		{[]string{"-eval-clients", "-1"}, "-eval-clients -1"},
		{[]string{"-parallel", "-1"}, "-parallel -1"},
		{[]string{"-checkpoint-every", "-1"}, "-checkpoint-every -1"},
		{[]string{"-cache-clients", "-1", "-lazy"}, "-cache-clients -1"},
		{[]string{"-controller", "static:bogus"}, "bogus"},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		var stderr bytes.Buffer
		cmd := exec.CommandContext(ctx, floatsimBin, append(append([]string(nil), cliRun...), append([]string{"-rounds", "1"}, tc.args...)...)...)
		cmd.Stderr = &stderr
		err := cmd.Run()
		timedOut := ctx.Err() != nil
		cancel()
		switch msg := stderr.String(); {
		case timedOut:
			t.Errorf("floatsim %v still running after 10s", tc.args)
		case err == nil:
			t.Errorf("floatsim %v exited 0", tc.args)
		case !strings.Contains(msg, tc.want) || strings.Contains(msg, "panic"):
			t.Errorf("floatsim %v: stderr does not name %s as an error:\n%s", tc.args, tc.want, msg)
		}
	}
}
