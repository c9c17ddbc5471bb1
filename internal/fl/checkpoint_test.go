package fl

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"reflect"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/selection"
)

// ckptCtrl is a deterministic stateful controller implementing
// checkpoint.Stateful: its decision stream depends on accumulated
// feedback, so any divergence in restored controller state changes every
// later decision.
type ckptCtrl struct {
	techs []opt.Technique
	step  int
	acc   float64
}

func newCkptCtrl() *ckptCtrl {
	return &ckptCtrl{
		techs: []opt.Technique{opt.TechNone, opt.TechQuant8, opt.TechPrune50, opt.TechQuant16, opt.TechPartial50},
	}
}

func (c *ckptCtrl) Name() string { return "ckpt-ctrl" }

func (c *ckptCtrl) Decide(int, *device.Client, device.Resources, float64) opt.Technique {
	return c.techs[c.step%len(c.techs)]
}

func (c *ckptCtrl) Feedback(_ int, _ *device.Client, _ opt.Technique, out device.Outcome, accImprove float64) {
	c.step += 1 + int(math.Abs(accImprove)*1e6)%5
	if out.Completed {
		c.acc += accImprove
	}
}

type ckptCtrlState struct {
	Step int     `json:"step"`
	Acc  float64 `json:"acc"`
}

func (c *ckptCtrl) CheckpointState() ([]byte, error) {
	return json.Marshal(ckptCtrlState{Step: c.step, Acc: c.acc})
}

func (c *ckptCtrl) RestoreCheckpoint(data []byte) error {
	var st ckptCtrlState
	if err := json.Unmarshal(data, &st); err != nil {
		return err
	}
	c.step, c.acc = st.Step, st.Acc
	return nil
}

// ckptPop builds a fresh population — lazy (tiny cache, constant
// eviction) or eager (materialized from the same universe).
func ckptPop(t testing.TB, clients int, lazy bool) *population.Population {
	t.Helper()
	if lazy {
		p, err := population.NewLazy(lazyPopConfig(clients))
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	ref, err := population.NewLazy(lazyPopConfig(clients))
	if err != nil {
		t.Fatal(err)
	}
	fed, pop := ref.Materialize()
	eager, err := population.WrapEager(fed, pop)
	if err != nil {
		t.Fatal(err)
	}
	return eager
}

func ckptConfig(engine string, rounds int) Config {
	cfg := Config{
		Arch:            "resnet18",
		Rounds:          rounds,
		ClientsPerRound: 5,
		Epochs:          1,
		BatchSize:       8,
		LR:              0.1,
		EvalEvery:       3,
		Seed:            5,
		Parallelism:     2,
	}
	if engine == "async" {
		cfg.Concurrency = 10
		cfg.BufferK = 3
	}
	return cfg
}

type ckptRunOut struct {
	res      *Result
	log      string
	metrics  string
	timeline string
}

// runCkpt executes one run of the matrix on a fresh population, returning
// the result, JSONL log, full metrics exposition, and timeline export.
func runCkpt(t *testing.T, engine string, clients, rounds int, lazy bool, ck *CheckpointConfig) ckptRunOut {
	t.Helper()
	p := ckptPop(t, clients, lazy)
	reg := obs.NewRegistry()
	if lazy {
		p.Instrument(reg)
	}
	var logBuf bytes.Buffer
	cfg := ckptConfig(engine, rounds)
	cfg.Metrics = reg
	cfg.Timeline = obs.NewTimeline(reg, 64)
	cfg.Logger = NewJSONLLogger(&logBuf)
	cfg.Checkpoint = ck

	var res *Result
	var err error
	switch engine {
	case "async":
		res, err = RunAsyncPop(p, newCkptCtrl(), cfg)
	case "sync-oort":
		res, err = RunSyncPop(p, selection.NewOort(selection.OortConfig{Seed: 7}), newCkptCtrl(), cfg)
	default: // sync-random
		res, err = RunSyncPop(p, selection.NewRandom(7), newCkptCtrl(), cfg)
	}
	if err != nil {
		t.Fatal(err)
	}
	var mb, tb bytes.Buffer
	if err := reg.WriteText(&mb); err != nil {
		t.Fatal(err)
	}
	if err := cfg.Timeline.WriteJSONL(&tb); err != nil {
		t.Fatal(err)
	}
	return ckptRunOut{res: res, log: logBuf.String(), metrics: mb.String(), timeline: tb.String()}
}

// assertResumedMatchesFull is the acceptance bar: a resumed run must be
// bit-identical to the uninterrupted one on parameters, accuracy
// trajectories, JSONL logs (prefix + tail == full), ledger content, and
// the metrics exposition bytes.
func assertResumedMatchesFull(t *testing.T, full, prefix, resumed ckptRunOut, clients int) {
	t.Helper()
	if !reflect.DeepEqual(resumed.res.FinalParams, full.res.FinalParams) {
		t.Errorf("FinalParams differ after resume")
	}
	if !reflect.DeepEqual(resumed.res.GlobalAccHistory, full.res.GlobalAccHistory) {
		t.Errorf("GlobalAccHistory differs:\n  resumed=%v\n  full=%v",
			resumed.res.GlobalAccHistory, full.res.GlobalAccHistory)
	}
	if !reflect.DeepEqual(resumed.res.FinalClientAccs, full.res.FinalClientAccs) {
		t.Errorf("FinalClientAccs differ")
	}
	if resumed.res.WallClockSeconds != full.res.WallClockSeconds {
		t.Errorf("WallClockSeconds %v vs %v", resumed.res.WallClockSeconds, full.res.WallClockSeconds)
	}
	if resumed.res.CompletedRounds != full.res.CompletedRounds {
		t.Errorf("CompletedRounds %d vs %d", resumed.res.CompletedRounds, full.res.CompletedRounds)
	}
	if prefix.log+resumed.log != full.log {
		t.Errorf("JSONL logs: prefix(%dB) + resumed(%dB) != full(%dB)",
			len(prefix.log), len(resumed.log), len(full.log))
	}
	if resumed.metrics != full.metrics {
		t.Errorf("metrics exposition differs:\n--- resumed ---\n%s--- full ---\n%s", resumed.metrics, full.metrics)
	}
	// Stitching invariant: the snapshot carries the timeline ring, so the
	// resumed run's export (prefix samples restored + tail sampled live)
	// must be byte-identical to the uninterrupted run's.
	if resumed.timeline != full.timeline {
		t.Errorf("timeline export differs:\n--- resumed ---\n%s--- full ---\n%s", resumed.timeline, full.timeline)
	}
	if ra, fa := aggregatesOf(resumed.res.Ledger), aggregatesOf(full.res.Ledger); ra != fa {
		t.Errorf("ledger aggregates differ:\n  resumed=%+v\n  full=%+v", ra, fa)
	}
	for id := 0; id < clients; id++ {
		if resumed.res.Ledger.SelectedCount(id) != full.res.Ledger.SelectedCount(id) ||
			resumed.res.Ledger.CompletedCount(id) != full.res.Ledger.CompletedCount(id) {
			t.Fatalf("client %d tallies diverge after resume", id)
		}
	}
}

// TestResumeMatrix is the tentpole acceptance test: for each engine
// (sync/random, sync/oort, async FedBuff) over each population mode
// (eager, lazy), run-2N must equal run-N → snapshot → restore into a
// fresh process-equivalent run → run-N, bit for bit.
func TestResumeMatrix(t *testing.T) {
	const clients = 32
	const half = 3
	for _, engine := range []string{"sync-random", "sync-oort", "async"} {
		for _, lazy := range []bool{false, true} {
			name := engine + "/eager"
			if lazy {
				name = engine + "/lazy"
			}
			t.Run(name, func(t *testing.T) {
				full := runCkpt(t, engine, clients, 2*half, lazy, nil)

				var snap []byte
				prefix := runCkpt(t, engine, clients, half, lazy, &CheckpointConfig{
					Every: half,
					Sink:  func(b []byte) error { snap = b; return nil },
				})
				if snap == nil {
					t.Fatal("periodic snapshot never fired")
				}
				if prefix.res.CompletedRounds != half {
					t.Fatalf("prefix completed %d rounds, want %d", prefix.res.CompletedRounds, half)
				}

				resumed := runCkpt(t, engine, clients, 2*half, lazy, &CheckpointConfig{Resume: snap})
				assertResumedMatchesFull(t, full, prefix, resumed, clients)
			})
		}
	}
}

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
// restores the emitted snapshot into a fresh run, and requires the
// stitched execution to be byte-equal to an uninterrupted one — for both
// engines. Run under -race this also proves the snapshot path is free of
// data races with the training fan-out.
func TestChaosKillResume(t *testing.T) {
	const clients = 32
	const rounds = 6
	for _, engine := range []string{"sync-random", "async"} {
		t.Run(engine, func(t *testing.T) {
			full := runCkpt(t, engine, clients, rounds, true, nil)

			// Interrupted run: the kill lands mid-round 2.
			p := ckptPop(t, clients, true)
			reg := obs.NewRegistry()
			p.Instrument(reg)
			var logBuf bytes.Buffer
			killed := false
			var snap []byte
			cfg := ckptConfig(engine, rounds)
			cfg.Metrics = reg
			cfg.Timeline = obs.NewTimeline(reg, 64)
			cfg.Logger = chaosLogger{inner: NewJSONLLogger(&logBuf), killRound: 2, killed: &killed}
			cfg.Checkpoint = &CheckpointConfig{
				Stop: func() bool { return killed },
				Sink: func(b []byte) error { snap = b; return nil },
			}
			var res *Result
			var err error
			if engine == "async" {
				res, err = RunAsyncPop(p, newCkptCtrl(), cfg)
			} else {
				res, err = RunSyncPop(p, selection.NewRandom(7), newCkptCtrl(), cfg)
			}
			if err != nil {
				t.Fatalf("interrupted run errored: %v", err)
			}
			if snap == nil {
				t.Fatal("stop did not produce a snapshot")
			}
			if res.CompletedRounds <= 0 || res.CompletedRounds >= rounds {
				t.Fatalf("interrupted run completed %d of %d rounds — kill did not land mid-run", res.CompletedRounds, rounds)
			}

			resumed := runCkpt(t, engine, clients, rounds, true, &CheckpointConfig{Resume: snap})
			if !reflect.DeepEqual(resumed.res.FinalParams, full.res.FinalParams) {
				t.Errorf("FinalParams differ after chaos resume")
			}
			if logBuf.String()+resumed.log != full.log {
				t.Errorf("JSONL logs: interrupted(%dB) + resumed(%dB) != full(%dB)",
					logBuf.Len(), len(resumed.log), len(full.log))
			}
			if resumed.metrics != full.metrics {
				t.Errorf("metrics exposition differs after chaos resume")
			}
			if resumed.timeline != full.timeline {
				t.Errorf("timeline export differs after chaos resume")
			}
		})
	}
}

// snapshotOf captures one sync snapshot for the corruption/compat tests.
func snapshotOf(t *testing.T, clients int) []byte {
	t.Helper()
	var snap []byte
	runCkpt(t, "sync-random", clients, 3, false, &CheckpointConfig{
		Every: 3,
		Sink:  func(b []byte) error { snap = b; return nil },
	})
	if snap == nil {
		t.Fatal("no snapshot produced")
	}
	return snap
}

// TestCorruptSnapshotFailsCleanly flips a payload byte and requires the
// resume to fail with the typed checksum error before mutating anything:
// the same population object then runs from scratch and must match a
// clean-population run exactly.
func TestCorruptSnapshotFailsCleanly(t *testing.T) {
	const clients = 32
	snap := snapshotOf(t, clients)
	corrupt := append([]byte(nil), snap...)
	corrupt[len(corrupt)/2] ^= 0x41

	p := ckptPop(t, clients, false)
	cfg := ckptConfig("sync-random", 3)
	cfg.Checkpoint = &CheckpointConfig{Resume: corrupt}
	_, err := RunSyncPop(p, selection.NewRandom(7), newCkptCtrl(), cfg)
	if !errors.Is(err, checkpoint.ErrChecksum) {
		t.Fatalf("corrupt resume: got %v, want ErrChecksum", err)
	}

	// Zero partial mutation: the failed resume must have left the
	// population untouched, so running it normally matches a fresh one.
	cfg.Checkpoint = nil
	after, err := RunSyncPop(p, selection.NewRandom(7), newCkptCtrl(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	clean := runCkpt(t, "sync-random", clients, 3, false, nil)
	if !reflect.DeepEqual(after.FinalParams, clean.res.FinalParams) {
		t.Errorf("population was mutated by the failed restore")
	}

	// Truncation gets its own typed error.
	cfgT := ckptConfig("sync-random", 3)
	cfgT.Checkpoint = &CheckpointConfig{Resume: snap[:len(snap)-5]}
	_, err = RunSyncPop(ckptPop(t, clients, false), selection.NewRandom(7), newCkptCtrl(), cfgT)
	if !errors.Is(err, checkpoint.ErrTruncated) {
		t.Fatalf("truncated resume: got %v, want ErrTruncated", err)
	}
}

// TestResumeRejectsMismatchedConfig pins the fingerprint check (field-level
// CompatError) and the engine-kind check (a sync snapshot cannot resume an
// async run).
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	const clients = 32
	snap := snapshotOf(t, clients)

	cfg := ckptConfig("sync-random", 3)
	cfg.Seed = 6
	cfg.Checkpoint = &CheckpointConfig{Resume: snap}
	_, err := RunSyncPop(ckptPop(t, clients, false), selection.NewRandom(7), newCkptCtrl(), cfg)
	var ce *checkpoint.CompatError
	if !errors.As(err, &ce) {
		t.Fatalf("seed mismatch: got %v, want CompatError", err)
	}
	if ce.Field != "seed" {
		t.Fatalf("CompatError field %q, want \"seed\"", ce.Field)
	}

	acfg := ckptConfig("async", 3)
	acfg.Checkpoint = &CheckpointConfig{Resume: snap}
	_, err = RunAsyncPop(ckptPop(t, clients, false), newCkptCtrl(), acfg)
	var fe *checkpoint.FormatError
	if !errors.As(err, &fe) {
		t.Fatalf("engine-kind mismatch: got %v, want FormatError", err)
	}
}

// TestCompletedRoundsReported pins the new Result fields on an ordinary
// uncheckpointed run.
func TestCompletedRoundsReported(t *testing.T) {
	out := runCkpt(t, "sync-random", 32, 3, false, nil)
	if out.res.CompletedRounds != 3 {
		t.Fatalf("CompletedRounds = %d, want 3", out.res.CompletedRounds)
	}
	if out.res.SimClockSeconds != out.res.WallClockSeconds {
		t.Fatalf("SimClockSeconds %v != WallClockSeconds %v", out.res.SimClockSeconds, out.res.WallClockSeconds)
	}
}

// TestSnapshotDigestPinned pins the snapshot *format*: the SHA-256 of the
// Sink blob a tiny sync (eager, Oort) and a tiny async run emit at their
// third boundary, with registry and timeline attached. Re-recorded in the
// commit that follows e8eb0c7 (PR 21), which moved every payload from
// JSON(+base64) to checkpoint.Enc sections under container version 2 —
// the one deliberate break: version 1 blobs are now a *VersionError, not a
// digest mismatch. The resume tests only prove a build agrees with itself;
// this fails when a field is renamed, reordered, dropped or re-encoded —
// i.e. when older snapshots would stop resuming.
func TestSnapshotDigestPinned(t *testing.T) {
	for engine, want := range map[string]string{
		"sync-oort": "ce83f62932691f592196a6afa957804fc87193135b86dda9e7f15d772c7db9d5",
		"async":     "6fb42373cdd72b3d67ebebc34340a6edfd52b7ca7a70c48dd5b7b74df4e98b75",
	} {
		var snap []byte
		runCkpt(t, engine, 32, 3, false, &CheckpointConfig{
			Every: 3,
			Sink:  func(b []byte) error { snap = b; return nil },
		})
		sum := sha256.Sum256(snap)
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("%s snapshot (%d bytes) digest %s, want %s", engine, len(snap), got, want)
		}
	}
}
