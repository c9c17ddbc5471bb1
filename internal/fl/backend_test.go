package fl

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"floatfl/internal/selection"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// goldenFingerprint is the committed record of a fixed-seed reference run.
// Params is the SHA-256 of the final global parameter vector serialized as
// little-endian float64 bits — any single-bit deviation in any parameter
// changes it. The accuracy history and wall clock ride along so a mismatch
// report says *what* moved, not just that something did.
type goldenFingerprint struct {
	Params           string    `json:"params_sha256"`
	NumParams        int       `json:"num_params"`
	GlobalAccHistory []float64 `json:"global_acc_history"`
	FinalGlobalAcc   float64   `json:"final_global_acc"`
	WallClockSeconds float64   `json:"wall_clock_seconds"`
}

func paramsSHA256(p tensor.Vector) string {
	h := sha256.New()
	var buf [8]byte
	for _, v := range p {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

func fingerprintOf(res *Result) goldenFingerprint {
	return goldenFingerprint{
		Params:           paramsSHA256(res.FinalParams),
		NumParams:        len(res.FinalParams),
		GlobalAccHistory: res.GlobalAccHistory,
		FinalGlobalAcc:   res.FinalGlobalAcc,
		WallClockSeconds: res.WallClockSeconds,
	}
}

// goldenRun is the fixed-seed experiment the backend fingerprint tests pin:
// dynamic interference, stochastic update transforms via the feedback-driven
// ckptCtrl, and multiple workers, so every hot kernel is on the path.
func goldenRun(t *testing.T, backend string) *Result {
	t.Helper()
	fed, pop := testSetup(t, 20, trace.ScenarioDynamic)
	cfg := parSyncConfig(4)
	cfg.Backend = backend
	res, err := runSync(fed, pop, selection.NewRandom(7), newCkptCtrl(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRefBackendGolden asserts the ref backend reproduces the pre-backend-
// split seed results bit-for-bit: the golden file was generated from the
// scalar kernels before the Backend interface existed, so this test proves
// the refactor changed no float anywhere in a training run. "fast" is a
// second registry name for ref's kernels, so a run under it must land on
// the same golden. Regenerate with UPDATE_GOLDEN=1 only for an intended
// semantic change.
func TestRefBackendGolden(t *testing.T) {
	got := fingerprintOf(goldenRun(t, "ref"))
	golden := filepath.Join("testdata", "backend_ref.golden.json")
	if os.Getenv("UPDATE_GOLDEN") == "1" {
		blob, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, append(blob, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	blob, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with UPDATE_GOLDEN=1): %v", err)
	}
	var want goldenFingerprint
	if err := json.Unmarshal(blob, &want); err != nil {
		t.Fatal(err)
	}
	checkGolden(t, "ref", got, want)
	checkGolden(t, "fast", fingerprintOf(goldenRun(t, "fast")), want)
}

// checkGolden requires got to equal the golden want bit for bit.
func checkGolden(t *testing.T, backend string, got, want goldenFingerprint) {
	t.Helper()
	if got.Params != want.Params || got.NumParams != want.NumParams {
		t.Errorf("%s: final params deviate from the golden: sha %s (n=%d), want %s (n=%d)",
			backend, got.Params, got.NumParams, want.Params, want.NumParams)
	}
	if len(got.GlobalAccHistory) != len(want.GlobalAccHistory) {
		t.Fatalf("%s: acc history length %d, want %d", backend, len(got.GlobalAccHistory), len(want.GlobalAccHistory))
	}
	for i, acc := range got.GlobalAccHistory {
		if acc != want.GlobalAccHistory[i] {
			t.Errorf("%s: acc history [%d] = %v, want %v (bit-exact)", backend, i, acc, want.GlobalAccHistory[i])
		}
	}
	if got.FinalGlobalAcc != want.FinalGlobalAcc {
		t.Errorf("%s: final global acc %v, want %v (bit-exact)", backend, got.FinalGlobalAcc, want.FinalGlobalAcc)
	}
	if got.WallClockSeconds != want.WallClockSeconds {
		t.Errorf("%s: wall clock %v, want %v (bit-exact)", backend, got.WallClockSeconds, want.WallClockSeconds)
	}
}

// TestConfigUnknownBackend pins the error path: a typo'd backend name must
// fail fast with an error naming the known set, not silently train on ref.
func TestConfigUnknownBackend(t *testing.T) {
	fed, pop := testSetup(t, 4, trace.ScenarioNone)
	cfg := parSyncConfig(1)
	cfg.Backend = "no-such-backend"
	if _, err := runSync(fed, pop, selection.NewRandom(7), NoOpController{}, cfg); err == nil {
		t.Fatal("RunSync with unknown backend did not error")
	}
	if _, err := runAsync(fed, pop, NoOpController{}, cfg); err == nil {
		t.Fatal("RunAsync with unknown backend did not error")
	}
}
