package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"floatfl/internal/checkpoint"
	"floatfl/internal/core"
	"floatfl/internal/data"
	"floatfl/internal/dist"
	"floatfl/internal/fl"
	"floatfl/internal/rl"
)

// Exit codes and the -resume contract are only observable from outside the
// process, so TestMain builds floatd once and the tests run it as a
// subprocess. No run gets to serve: each ends on a bad flag, a bad
// snapshot, or an -addr nothing can listen on.
var floatdBin string

func TestMain(m *testing.M) {
	os.Exit(buildAndRun(m))
}

func buildAndRun(m *testing.M) int {
	dir, err := os.MkdirTemp("", "floatd-test")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	defer os.RemoveAll(dir)
	floatdBin = filepath.Join(dir, "floatd")
	if out, err := exec.Command("go", "build", "-o", floatdBin, ".").CombinedOutput(); err != nil {
		fmt.Fprintf(os.Stderr, "go build: %v\n%s", err, out)
		return 1
	}
	return m.Run()
}

// unusableAddr cannot be listened on, and finding that out needs no
// network: the port is out of range.
const unusableAddr = "127.0.0.1:99999"

// floatd runs the binary on unusableAddr with extra flags and returns its
// exit code, stdout and stderr.
func floatd(t *testing.T, args ...string) (code int, stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	cmd := exec.Command(floatdBin, append([]string{"-addr", unusableAddr}, args...)...)
	cmd.Stdout, cmd.Stderr = &out, &errOut
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatal(err)
		}
		code = exit.ExitCode()
	}
	return code, out.String(), errOut.String()
}

// snapshotFile writes the snapshot of an aggregator floatd's defaults can
// resume (femnist's shapes, resnet18), driven by ctrl (nil: none) through
// `rounds` one-update rounds, and returns its path.
func snapshotFile(t *testing.T, rounds int, ctrl fl.Controller) string {
	t.Helper()
	fed, err := data.Generate("femnist", data.GenerateConfig{Clients: 1, Alpha: 100, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := dist.NewServer(dist.ServerConfig{
		Spec:       dist.TrainSpec{Arch: "resnet18", InDim: fed.Profile.Dim, Classes: fed.Profile.Classes},
		AggregateK: 1,
		Controller: ctrl,
		Clock:      dist.NewFakeClock(time.Unix(0, 0)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	hs := httptest.NewServer(srv.Handler())
	defer hs.Close()
	c := dist.NewClient(hs.URL, "c0", fed.Train[0], fed.LocalTest[0], 1)
	ctx := context.Background()
	if err := c.Register(ctx, 15, 3000); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < rounds; r++ {
		if ok, err := c.Step(ctx, r); err != nil || !ok {
			t.Fatalf("Step %d: ok=%v err=%v", r, ok, err)
		}
	}
	blob, err := srv.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "floatd.snap")
	if err := os.WriteFile(path, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestUnknownControllerExits1(t *testing.T) {
	code, _, stderr := floatd(t, "-controller", "bogus")
	if code != 1 || !strings.Contains(stderr, `floatd: unknown controller "bogus"`) {
		t.Fatalf("exit %d, stderr %q; want 1 and the unknown-controller message", code, stderr)
	}
}

// TestResumeRejectsBadSnapshot: a missing file and a corrupt one both end
// the process before it serves, and the corrupt one names the typed error.
func TestResumeRejectsBadSnapshot(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "missing.snap")
	if code, stdout, stderr := floatd(t, "-resume", missing); code == 0 || !strings.Contains(stderr, missing) || strings.Contains(stdout, "serving") {
		t.Errorf("missing snapshot: exit %d, stdout %q, stderr %q; want a nonzero exit naming the file before serving", code, stdout, stderr)
	}

	corrupt := snapshotFile(t, 2, nil)
	blob, err := os.ReadFile(corrupt)
	if err != nil {
		t.Fatal(err)
	}
	blob[len(blob)/2] ^= 0x41
	if err := os.WriteFile(corrupt, blob, 0o644); err != nil {
		t.Fatal(err)
	}
	if code, stdout, stderr := floatd(t, "-resume", corrupt); code == 0 || !strings.Contains(stderr, checkpoint.ErrChecksum.Error()) || strings.Contains(stdout, "serving") {
		t.Errorf("corrupt snapshot: exit %d, stdout %q, stderr %q; want a nonzero exit naming %q before serving", code, stdout, stderr, checkpoint.ErrChecksum)
	}
}

// TestResumeReportsRound: a valid snapshot is restored and its round
// reported before the unusable -addr ends the process.
func TestResumeReportsRound(t *testing.T) {
	path := snapshotFile(t, 2, nil)
	code, stdout, stderr := floatd(t, "-controller", "none", "-resume", path)
	if want := fmt.Sprintf("floatd: resumed from %s at round 2\n", path); !strings.Contains(stdout, want) {
		t.Errorf("stdout %q does not contain %q (stderr %q)", stdout, want, stderr)
	}
	if code == 0 || !strings.Contains(stderr, "listen tcp") {
		t.Errorf("exit %d, stderr %q; want the listen failure", code, stderr)
	}
}

// TestResumeRefusesOrphanAgent: a FLOAT aggregator's snapshot resumed with
// -controller none exits 1 naming the controller section, instead of
// serving without the agent it carries.
func TestResumeRefusesOrphanAgent(t *testing.T) {
	path := snapshotFile(t, 2, core.New(core.Config{
		Agent: rl.Config{Seed: 42, TotalRounds: 300}, BatchSize: 16, Epochs: 2, ClientsPerRound: 1,
	}))
	code, stdout, stderr := floatd(t, "-controller", "none", "-resume", path)
	if code != 1 || !strings.Contains(stderr, "controller snapshot present") || strings.Contains(stdout, "resumed") {
		t.Errorf("exit %d, stdout %q, stderr %q; want exit 1 naming the controller section", code, stdout, stderr)
	}
}
