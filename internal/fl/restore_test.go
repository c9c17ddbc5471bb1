package fl

import (
	"bytes"
	"errors"
	"math"
	"runtime"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/checkpoint/statefultests"
)

// freshRun builds an unexecuted eager or lazy run of a sync-oort or async
// row: the checkpoint.Stateful subject of the conformance and fuzz tests.
func freshRun(t testing.TB, engine string, lazy bool) *run {
	t.Helper()
	rr, err := row{engine, lazy}.start(t, runOpts{})
	if err != nil {
		t.Fatal(err)
	}
	return rr.run
}

// advance steps a run to its third boundary.
func advance(t testing.TB, r *run) {
	t.Helper()
	step := r.syncRound
	if r.async() {
		step = r.asyncStep
	}
	for r.done < 3 {
		if _, err := step(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEngineSnapshotConformance runs the checkpoint.Stateful suite over
// both engine kinds through the run's own CheckpointState /
// RestoreCheckpoint, on an eager and on a lazy (evicting) population.
func TestEngineSnapshotConformance(t *testing.T) {
	for _, engine := range []string{"sync-oort", "async"} {
		for _, lazy := range []bool{false, true} {
			name := engine + "/eager"
			if lazy {
				name = engine + "/lazy"
			}
			t.Run(name, func(t *testing.T) {
				statefultests.Run(t, statefultests.Subject{
					Framed: true,
					Fresh:  func(t *testing.T) checkpoint.Stateful { return freshRun(t, engine, lazy) },
					Drive:  func(t *testing.T, s checkpoint.Stateful) { advance(t, s.(*run)) },
				})
			})
		}
	}
}

// TestEngineRestoreRejectsNonFiniteParams: a snapshot whose global
// parameters or retained FedBuff versions hold a NaN or an Inf is a
// FormatError found before the first mutation. SetParameters copies
// whatever it is given, so such a snapshot used to resume, and every
// client round after it trained from the poisoned model.
func TestEngineRestoreRejectsNonFiniteParams(t *testing.T) {
	poisonGlobal := func(x float64) func(r *run) {
		return func(r *run) {
			p := r.global.Parameters().Clone()
			p[1] = x
			if err := r.global.SetParameters(p); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, tc := range []struct {
		name, engine string
		poison       func(r *run)
	}{
		{"sync/params-nan", "sync-oort", poisonGlobal(math.NaN())},
		{"async/params-inf", "async", poisonGlobal(math.Inf(1))},
		{"async/version-nan", "async", func(r *run) { r.versions[r.version-1][0] = math.NaN() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			src := freshRun(t, tc.engine, false)
			advance(t, src)
			tc.poison(src)
			blob, err := src.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			dst := freshRun(t, tc.engine, false)
			before, err := dst.CheckpointState()
			if err != nil {
				t.Fatal(err)
			}
			var fe *checkpoint.FormatError
			if err := dst.RestoreCheckpoint(blob); !errors.As(err, &fe) {
				t.Fatalf("got %v, want a FormatError", err)
			}
			if after, err := dst.CheckpointState(); err != nil || !bytes.Equal(before, after) {
				t.Fatalf("rejected restore changed the run (err %v)", err)
			}
		})
	}
}

// FuzzEngineRestore fuzzes the payload decoder, not the checksum: the
// seeds are a real sync and a real async snapshot's payload, and every
// mutated payload is re-framed with a correct length and SHA-256 before it
// is restored into a fresh run. The contract: no panic; success or one of
// the checkpoint package's typed errors; and memory bounded by a small
// multiple of the payload — no declared count is trusted.
func FuzzEngineRestore(f *testing.F) {
	for _, engine := range []string{"sync-oort", "async"} {
		r := freshRun(f, engine, false)
		advance(f, r)
		blob, err := r.CheckpointState()
		if err != nil {
			f.Fatal(err)
		}
		payload, err := checkpoint.DecodeBytes(blob, r.kind)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(r.async(), payload)
	}
	f.Fuzz(func(t *testing.T, async bool, payload []byte) {
		engine := "sync-oort"
		if async {
			engine = "async"
		}
		r := freshRun(t, engine, false)
		frame, err := checkpoint.EncodeBytes(r.kind, payload)
		if err != nil {
			t.Fatal(err)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err = r.RestoreCheckpoint(frame)
		runtime.ReadMemStats(&after)
		if err != nil && !statefultests.Typed(err) {
			t.Fatalf("untyped restore error: %v", err)
		}
		if grew, bound := after.TotalAlloc-before.TotalAlloc, uint64(32*len(payload)+1<<20); grew > bound {
			t.Fatalf("restoring a %d-byte payload allocated %d bytes (bound %d)", len(payload), grew, bound)
		}
	})
}
