package fl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"sort"
	"strings"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/population"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
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

// TestResumeRejectsMismatchedConfig walks the fingerprint a snapshot
// carries and changes one knob at a time: each resume is refused with a
// CompatError naming that knob, so a Config or population.Config field
// added without a case here fails the test. The engine kind is refused
// first, by the frame: a sync snapshot cannot resume an async run. The
// fields the fingerprint leaves out still resume.
func TestResumeRejectsMismatchedConfig(t *testing.T) {
	lazyPop := func(change func(*population.Config)) func(*runOpts) {
		return func(o *runOpts) {
			cfg := lazyPopConfig(matrixClients)
			change(&cfg)
			p, err := population.NewLazy(cfg)
			if err != nil {
				t.Fatal(err)
			}
			o.pop = p
		}
	}
	tweak := func(change func(*Config)) func(*runOpts) { return func(o *runOpts) { o.tweak = change } }
	syncLazy, asyncLazy, syncEager := row{"sync-random", true}, row{"async", true}, row{"sync-random", false}
	type knob struct {
		base, resume row
		change       func(*runOpts)
	}
	knobs := map[string]knob{
		"arch":                    {syncLazy, syncLazy, tweak(func(c *Config) { c.Arch = "resnet34" })},
		"backend":                 {syncLazy, syncLazy, tweak(func(c *Config) { c.Backend = "fast" })},
		"batch_size":              {syncLazy, syncLazy, tweak(func(c *Config) { c.BatchSize = 16 })},
		"clients_per_round":       {syncLazy, syncLazy, tweak(func(c *Config) { c.ClientsPerRound = 6 })},
		"deadline_percentile":     {syncLazy, syncLazy, tweak(func(c *Config) { c.DeadlinePercentile = 50 })},
		"deadline_sec":            {syncLazy, syncLazy, tweak(func(c *Config) { c.DeadlineSec = 100 })},
		"epochs":                  {syncLazy, syncLazy, tweak(func(c *Config) { c.Epochs = 2 })},
		"eval_clients":            {syncLazy, syncLazy, tweak(func(c *Config) { c.EvalClients = 10 })},
		"eval_every":              {syncLazy, syncLazy, tweak(func(c *Config) { c.EvalEvery = 2 })},
		"lr":                      {syncLazy, syncLazy, tweak(func(c *Config) { c.LR = 0.2 })},
		"prox_mu":                 {syncLazy, syncLazy, tweak(func(c *Config) { c.ProxMu = 0.01 })},
		"seed":                    {syncLazy, syncLazy, tweak(func(c *Config) { c.Seed = 6 })},
		"concurrency":             {asyncLazy, asyncLazy, tweak(func(c *Config) { c.Concurrency = 11 })},
		"buffer_k":                {asyncLazy, asyncLazy, tweak(func(c *Config) { c.BufferK = 4 })},
		"staleness_cap":           {asyncLazy, asyncLazy, tweak(func(c *Config) { c.StalenessCap = 5 })},
		"engine":                  {syncLazy, asyncLazy, func(*runOpts) {}},
		"controller":              {syncLazy, syncLazy, func(o *runOpts) { o.ctrl = NoOpController{} }},
		"selector":                {syncLazy, row{"sync-oort", true}, func(*runOpts) {}},
		"lazy_selection":          {syncEager, syncEager, func(o *runOpts) { o.eagerBacked = true }},
		"population.alpha":        {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.Alpha = 0.2 })},
		"population.clients":      {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.Clients++ })},
		"population.dataset":      {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.Dataset = "cifar10" })},
		"population.five_g_share": {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.FiveGShare = 0.5 })},
		"population.scenario":     {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.Scenario = trace.ScenarioStatic })},
		"population.seed":         {syncLazy, syncLazy, lazyPop(func(c *population.Config) { c.Seed++ })},
	}
	snaps := map[row][]byte{}
	snapshot := func(rw row) []byte {
		if snaps[rw] == nil {
			snaps[rw] = rw.exec(t, runOpts{rounds: half}).snaps[half]
		}
		return snaps[rw]
	}

	for _, key := range fingerprintKeys(t, snapshot(syncLazy)) {
		k, ok := knobs[key]
		if !ok {
			t.Errorf("fingerprint knob %q has no case", key)
			continue
		}
		delete(knobs, key)
		o := runOpts{resume: snapshot(k.base)}
		k.change(&o)
		_, err := k.resume.start(t, o)
		var ce *checkpoint.CompatError
		var fe *checkpoint.FormatError
		if key == "engine" && !errors.As(err, &fe) {
			t.Errorf("resume of a sync snapshot by an async run: got %v, want a FormatError", err)
		} else if key != "engine" && (!errors.As(err, &ce) || ce.Field != key) {
			t.Errorf("resume with another %s: got %v, want a CompatError naming it", key, err)
		}
	}
	for key := range knobs {
		t.Errorf("case %q is not a fingerprint knob", key)
	}

	for name, change := range map[string]func(*runOpts){
		"Rounds":       func(o *runOpts) { o.rounds = matrixRounds + 3 },
		"Parallelism":  func(o *runOpts) { o.par = 8 },
		"sinks":        tweak(func(c *Config) { c.Logger, c.Metrics, c.Tracer, c.Timeline = nil, nil, nil, nil }),
		"CacheClients": lazyPop(func(c *population.Config) { c.CacheClients = 8 }),
	} {
		o := runOpts{resume: snapshot(syncLazy)}
		change(&o)
		if _, err := syncLazy.start(t, o); err != nil {
			t.Errorf("resume with another %s: %v", name, err)
		}
	}
}

// fingerprintKeys returns the knobs a sync snapshot's fingerprint pins,
// nested objects by path.
func fingerprintKeys(t *testing.T, snap []byte) []string {
	t.Helper()
	payload, err := checkpoint.DecodeBytes(snap, SyncSnapshotKind)
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	var walk func(prefix string, obj []byte)
	walk = func(prefix string, obj []byte) {
		var m map[string]json.RawMessage
		if err := json.Unmarshal(obj, &m); err != nil {
			t.Fatal(err)
		}
		names := make([]string, 0, len(m))
		for k := range m {
			names = append(names, k)
		}
		sort.Strings(names)
		for _, k := range names {
			if m[k][0] == '{' {
				walk(prefix+k+".", m[k])
			} else {
				keys = append(keys, prefix+k)
			}
		}
	}
	walk("", checkpoint.NewDec(payload).RawBytes())
	return keys
}

// TestCompletedRoundsReported pins the new Result fields on an ordinary
// uncheckpointed run.
func TestCompletedRoundsReported(t *testing.T) {
	res := row{"sync-random", false}.exec(t, runOpts{rounds: half, tweak: func(cfg *Config) { cfg.Checkpoint = nil }}).res
	if res.CompletedRounds != half {
		t.Fatalf("CompletedRounds = %d, want %d", res.CompletedRounds, half)
	}
}

// TestSinkFailureEndsRun: a Sink that fails at boundary k ends the run,
// on either engine, with an error that wraps the sink's and names k, and
// the sink is not called again.
func TestSinkFailureEndsRun(t *testing.T) {
	errFull := errors.New("no space left on device")
	const k = 2
	for _, engine := range []string{"sync", "async"} {
		t.Run(engine, func(t *testing.T) {
			calls := 0
			cfg := Config{Arch: "resnet18", Rounds: matrixRounds, ClientsPerRound: 5, Epochs: 1, BatchSize: 8, LR: 0.1,
				EvalEvery: 3, Seed: 5, Parallelism: 1, Checkpoint: &CheckpointConfig{Every: 1, Sink: func([]byte) error {
					if calls++; calls == k {
						return errFull
					}
					return nil
				}}}
			var err error
			if engine == "async" {
				cfg.Concurrency, cfg.BufferK = 10, 3
				_, err = RunAsyncPop(ckptPop(t, false), newCkptCtrl(), cfg)
			} else {
				_, err = RunSyncPop(ckptPop(t, false), selection.NewRandom(7), newCkptCtrl(), cfg)
			}
			if !errors.Is(err, errFull) {
				t.Fatalf("got %v, want an error wrapping the sink's", err)
			}
			if at := fmt.Sprintf("at %d", k); !strings.Contains(err.Error(), at) {
				t.Errorf("error %q does not name boundary %d", err, k)
			}
			if calls != k {
				t.Errorf("the sink was called %d times, want %d: the run went on after it failed", calls, k)
			}
		})
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
