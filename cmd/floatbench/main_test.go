package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"floatfl/internal/experiment"
)

// floatbenchBin is the command under test, built once by TestMain: the
// CLI contract (flag parsing, exit codes, which stream an error lands on)
// is only observable from outside the process.
var floatbenchBin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "floatbench-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	floatbenchBin = filepath.Join(dir, "floatbench")
	if out, err := exec.Command("go", "build", "-o", floatbenchBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// run executes floatbench with args and returns its streams and exit code.
func run(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	var out, errb bytes.Buffer
	cmd := exec.Command(floatbenchBin, args...)
	cmd.Stdout, cmd.Stderr = &out, &errb
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("floatbench %v: %v", args, err)
		}
		code = exit.ExitCode()
	}
	return out.String(), errb.String(), code
}

func TestListPrintsEveryFigure(t *testing.T) {
	stdout, stderr, code := run(t, "-list")
	if code != 0 {
		t.Fatalf("-list exited %d, stderr: %s", code, stderr)
	}
	want := "available figures:\n  " + strings.Join(experiment.FigureNames(), "\n  ") + "\n"
	if stdout != want {
		t.Errorf("-list printed\n%s\nwant\n%s", stdout, want)
	}
}

func TestBadInvocationsFail(t *testing.T) {
	cases := []struct {
		name       string
		args       []string
		wantCode   int
		wantStderr string
	}{
		{name: "unknown figure", args: []string{"-fig", "no-such-fig"}, wantCode: 1, wantStderr: `"no-such-fig"`},
		{name: "unknown scale", args: []string{"-scale", "bogus"}, wantCode: 1, wantStderr: `"bogus"`},
		{name: "compare is not a flag", args: []string{"-compare", "old.json", "new.json"}, wantCode: 2, wantStderr: "-compare"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stdout, stderr, code := run(t, tc.args...)
			if code != tc.wantCode {
				t.Errorf("floatbench %v exited %d, want %d (stderr: %s)", tc.args, code, tc.wantCode, stderr)
			}
			if !strings.Contains(stderr, tc.wantStderr) {
				t.Errorf("floatbench %v stderr %q does not name %s", tc.args, stderr, tc.wantStderr)
			}
			if stdout != "" {
				t.Errorf("floatbench %v wrote to stdout on failure: %q", tc.args, stdout)
			}
		})
	}
}
