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
)

// floattraceBin is the command under test, built once by TestMain: the
// CSV on stdout and the exit codes are only observable from outside the
// process.
var floattraceBin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "floattrace-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	floattraceBin = filepath.Join(dir, "floattrace")
	if out, err := exec.Command("go", "build", "-o", floattraceBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// run executes floattrace with args and returns its stdout and exit code.
func run(t *testing.T, args ...string) ([]byte, int) {
	t.Helper()
	var out bytes.Buffer
	cmd := exec.Command(floattraceBin, args...)
	cmd.Stdout = &out
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("floattrace %v: %v", args, err)
		}
		return out.Bytes(), exit.ExitCode()
	}
	return out.Bytes(), 0
}

// TestKindsPrintHeaderAndRows: every -kind prints its CSV header and one
// row per client and step (one per device for compute).
func TestKindsPrintHeaderAndRows(t *testing.T) {
	const clients, steps = 3, 7
	for _, tc := range []struct {
		kind   string
		header string
		rows   int
	}{
		{"bandwidth", "client,step,mbps", clients * steps},
		{"compute", "device,class,gflops,memory_mb,energy_capacity_h", clients},
		{"availability", "client,step,available,battery", clients * steps},
		{"interference", "client,step,cpu_frac,mem_frac,net_frac", clients * steps},
	} {
		t.Run(tc.kind, func(t *testing.T) {
			out, code := run(t, "-kind", tc.kind, "-clients", fmt.Sprint(clients), "-steps", fmt.Sprint(steps))
			if code != 0 {
				t.Fatalf("exited %d", code)
			}
			records, err := csv.NewReader(bytes.NewReader(out)).ReadAll()
			if err != nil {
				t.Fatalf("output is not CSV: %v", err)
			}
			if got := strings.Join(records[0], ","); got != tc.header {
				t.Errorf("header %q, want %q", got, tc.header)
			}
			if got := len(records) - 1; got != tc.rows {
				t.Errorf("%d rows, want %d", got, tc.rows)
			}
		})
	}
}

// TestSameSeedSameBytes: the export is a pure function of its flags.
func TestSameSeedSameBytes(t *testing.T) {
	for _, kind := range []string{"bandwidth", "compute", "availability", "interference"} {
		args := []string{"-kind", kind, "-clients", "2", "-steps", "20", "-seed", "5"}
		a, _ := run(t, args...)
		b, _ := run(t, args...)
		if !bytes.Equal(a, b) {
			t.Errorf("-kind %s: two runs at the same seed differ", kind)
		}
	}
}

// TestUnknownNamesExit1: an unknown -kind, -net or -scenario is an error.
func TestUnknownNamesExit1(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "bogus"},
		{"-kind", "bandwidth", "-net", "3g"},
		{"-kind", "interference", "-scenario", "bogus"},
	} {
		if _, code := run(t, args...); code != 1 {
			t.Errorf("floattrace %v exited %d, want 1", args, code)
		}
	}
}
