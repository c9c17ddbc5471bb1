package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"testing"
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

// TestResumeMatchesUninterrupted: run-6 must equal run-3 with a snapshot
// file, then a new-process -resume of the same 6-round command — the JSONL
// log as prefix + tail, and the metrics exposition byte for byte.
func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	at := func(name string) string { return filepath.Join(dir, name) }
	floatsim(t, "-rounds", "6", "-metrics-out", at("full.txt"), "-log", at("full.jsonl"))
	floatsim(t, "-rounds", "3", "-checkpoint", at("run.ckpt"), "-checkpoint-every", "3",
		"-metrics-out", at("prefix.txt"), "-log", at("prefix.jsonl"))
	floatsim(t, "-rounds", "6", "-resume", at("run.ckpt"), "-metrics-out", at("resumed.txt"), "-log", at("resumed.jsonl"))

	if !bytes.Equal(read(t, at("resumed.txt")), read(t, at("full.txt"))) {
		t.Error("resumed -metrics-out differs from the uninterrupted run's")
	}
	if !bytes.Equal(append(read(t, at("prefix.jsonl")), read(t, at("resumed.jsonl"))...), read(t, at("full.jsonl"))) {
		t.Error("prefix + resumed -log differs from the uninterrupted run's")
	}
}

// TestTimelineParallelismInvariant: the -timeline-out export is identical
// at -parallel 1 and 8, and floatreport diff says so with exit 0 — and
// flags a different seed with exit 1.
func TestTimelineParallelismInvariant(t *testing.T) {
	dir := t.TempDir()
	p1, p8, seed99 := filepath.Join(dir, "p1.jsonl"), filepath.Join(dir, "p8.jsonl"), filepath.Join(dir, "seed99.jsonl")
	floatsim(t, "-rounds", "6", "-parallel", "1", "-timeline-out", p1)
	floatsim(t, "-rounds", "6", "-parallel", "8", "-timeline-out", p8)
	floatsim(t, "-rounds", "6", "-parallel", "1", "-seed", "99", "-timeline-out", seed99)

	if !bytes.Equal(read(t, p1), read(t, p8)) {
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
			t.Errorf("floatreport diff %s %s exited %d, want %d", filepath.Base(p1), filepath.Base(tc.b), code, tc.want)
		}
	}
}
