package fl

import (
	"bytes"
	"errors"
	"testing"

	"floatfl/internal/checkpoint"
)

// chaosLogger forwards to an inner logger and raises the kill flag the
// moment it sees a client event of the target round — modeling a signal
// arriving mid-round; the engine must carry on to its quiescent boundary
// before snapshotting.
type chaosLogger struct {
	inner     RoundLogger
	killRound int
	killed    *bool
}

func (l chaosLogger) LogClientRound(e ClientRoundLog) {
	if e.Round >= l.killRound {
		*l.killed = true
	}
	l.inner.LogClientRound(e)
}

func (l chaosLogger) LogRoundSummary(e RoundSummaryLog) { l.inner.LogRoundSummary(e) }

// TestChaosKillResume kills a run mid-round via the polled Stop hook,
// restores the snapshot the stop took into a fresh run, and requires the
// stitched execution to match an uninterrupted one on every artifact — for
// both engines. Run under -race this also proves the snapshot path is free
// of data races with the training fan-out.
func TestChaosKillResume(t *testing.T) {
	for _, rw := range []row{{"sync-random", true}, {"async", true}} {
		t.Run(rw.engine, func(t *testing.T) {
			killed := false
			interrupted := rw.exec(t, runOpts{tweak: func(cfg *Config) {
				cfg.Logger = chaosLogger{inner: cfg.Logger, killRound: 2, killed: &killed}
				cfg.Checkpoint.Stop = func() bool { return killed }
			}})
			if done := interrupted.res.CompletedRounds; done <= 0 || done >= matrixRounds {
				t.Fatalf("interrupted run completed %d of %d rounds — kill did not land mid-run", done, matrixRounds)
			}
			resumed := rw.exec(t, runOpts{resume: interrupted.snaps[interrupted.done]})
			full := rw.exec(t, runOpts{}).artifact(t)
			assertSame(t, "chaos-kill", stitch(t, interrupted, resumed), full)
		})
	}
}

// snapshotOf captures the boundary-3 snapshot of an eager sync run.
func snapshotOf(t *testing.T) []byte {
	t.Helper()
	return row{"sync-random", false}.exec(t, runOpts{rounds: half}).snaps[half]
}

// TestCorruptSnapshotFailsCleanly flips a payload byte and requires the
// resume to fail with the typed checksum error before mutating anything:
// the same population object then runs from scratch and must match a
// clean-population run exactly.
func TestCorruptSnapshotFailsCleanly(t *testing.T) {
	rw := row{"sync-random", false}
	snap := snapshotOf(t)
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x41

	p := ckptPop(t, false)
	if _, err := rw.start(t, runOpts{rounds: half, pop: p, resume: corrupt}); !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("corrupt resume: got %v, want ErrChecksum", err)
	}
	// Zero partial mutation: the failed resume must have left the
	// population untouched, so running it normally matches a fresh one.
	after := rw.exec(t, runOpts{rounds: half, pop: p}).artifact(t)
	clean := rw.exec(t, runOpts{rounds: half}).artifact(t)
	if !bytes.Equal(after["params"], clean["params"]) {
		t.Errorf("population was mutated by the failed restore")
	}

	// Truncation gets its own typed error.
	if _, err := rw.start(t, runOpts{rounds: half, resume: snap[:len(snap)-5]}); !errors.Is(err, checkpoint.ErrTruncated) {
		t.Fatalf("truncated resume: got %v, want ErrTruncated", err)
	}
}

// TestResumeRejectsMismatchedConfig pins the fingerprint check (field-level
// CompatError) and the engine-kind check (a sync snapshot cannot resume an
// async run).
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	snap := snapshotOf(t)

	_, err := row{"sync-random", false}.start(t, runOpts{resume: snap, tweak: func(cfg *Config) { cfg.Seed = 6 }})
	var ce *checkpoint.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("seed mismatch: got %v, want CompatError", err)
	}
	if ce.Field != "seed" {
		t.Fatalf("CompatError field %q, want \"seed\"", ce.Field)
	}

	_, err = row{"async", false}.start(t, runOpts{resume: snap})
	var fe *checkpoint.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("engine-kind mismatch: got %v, want FormatError", err)
	}
}

// TestCompletedRoundsReported pins the new Result fields on an ordinary
// uncheckpointed run.
func TestCompletedRoundsReported(t *testing.T) {
	res := row{"sync-random", false}.exec(t, runOpts{rounds: half, tweak: func(cfg *Config) { cfg.Checkpoint = nil }}).res
	if res.CompletedRounds != half {
		t.Fatalf("CompletedRounds = %d, want %d", res.CompletedRounds, half)
	}
}

// TestTaskSnapMinIsAZeroTask: taskSnapMin, the per-task floor a hostile
// count is checked against, is exactly what appendEventLoop writes for a
// zero-valued in-flight task — each varint and bool one byte, each float
// eight.
func TestTaskSnapMinIsAZeroTask(t *testing.T) {
	empty, one := checkpoint.NewEnc(0), checkpoint.NewEnc(0)
	(&run{}).appendEventLoop(empty)
	(&run{tasks: taskHeap{{}}}).appendEventLoop(one)
	if got := len(one.Bytes()) - len(empty.Bytes()); got != taskSnapMin {
		t.Errorf("a zero-valued task encodes to %d bytes, taskSnapMin is %d", got, taskSnapMin)
	}
}
