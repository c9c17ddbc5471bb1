package fl

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"maps"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/device"
	"floatfl/internal/metrics"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/selection"
)

// TestEquivalenceMatrix states the determinism contract once. Every row —
// an engine over an eager or a lazy (4-client cache, constant eviction)
// population — runs a P=1 baseline, and every variation must reproduce
// every artifact of it byte for byte, except where the variation says
// otherwise. A failure names the row, the variation, the artifact and the
// first differing byte.
//
// Rows: {sync-random, sync-oort, sync-refl, async} × {eager, lazy}.
// Variations: P=8, P=8 again, GOMAXPROCS=1 at P=8, untraced, resume at 3
// of 6 (P=1 prefix, P=8 resume; and the mirror through a file), and — lazy
// rows only — the same universe held eagerly.
func TestEquivalenceMatrix(t *testing.T) {
	for _, rw := range matrixRows() {
		t.Run(rw.name(), func(t *testing.T) {
			baseRun := rw.exec(t, runOpts{})
			base := baseRun.artifact(t)
			checkBaseline(t, baseRun, base)
			for _, v := range variations {
				if v.lazyOnly && !rw.lazy {
					continue
				}
				t.Run(v.name, func(t *testing.T) { checkVariation(t, rw, v, base) })
			}
		})
	}
}

// checkVariation runs v on rw and compares it with the row's baseline
// artifact, narrowed to the named artifacts when any are named.
func checkVariation(t *testing.T, rw row, v variation, base artifact, names ...string) {
	t.Helper()
	got, want := v.run(t, rw), base
	if v.project != nil {
		got, want = v.project(got), v.project(want)
	}
	if len(names) > 0 {
		got, want = only(names)(got), only(names)(want)
	}
	assertSame(t, rw.name()+"/"+v.name, got, want)
}

// checkCell is one cell of the matrix on its own: rw's baseline against the
// named variation, narrowed to the named artifacts.
func checkCell(t *testing.T, rw row, vname string, names ...string) {
	t.Helper()
	i := slices.IndexFunc(variations, func(v variation) bool { return v.name == vname })
	checkVariation(t, rw, variations[i], rw.exec(t, runOpts{}).artifact(t), names...)
}

// The determinism tests below predate the matrix and keep their names.
// Each is one cell of it (or a repeat of one run), narrowed to the
// artifacts it was written about; the matrix states the whole contract.

func TestRunSyncDeterministic(t *testing.T) {
	rw := row{"sync-random", false}
	assertSame(t, "sync-random/eager twice", rw.exec(t, runOpts{}).artifact(t), rw.exec(t, runOpts{}).artifact(t))
}

func TestRunSyncParallelismBitIdentical(t *testing.T) {
	checkCell(t, row{"sync-random", false}, "P=8", "params", "log", "ledger")
}

func TestRunSyncParallelRepeatable(t *testing.T) {
	rw := row{"sync-random", false}
	assertSame(t, "sync-random/eager at P=8 twice", atP8(t, rw), atP8(t, rw))
}

func TestRunAsyncParallelismBitIdentical(t *testing.T) {
	checkCell(t, row{"async", false}, "P=8", "params", "log", "ledger")
}

func TestSyncTelemetryParallelismInvariant(t *testing.T) {
	checkCell(t, row{"sync-random", false}, "P=8", "exposition", "trace")
}

func TestAsyncTelemetryParallelismInvariant(t *testing.T) {
	checkCell(t, row{"async", false}, "P=8", "exposition", "trace")
}

func TestLazyTelemetryParallelismInvariant(t *testing.T) {
	for _, sel := range []string{"random", "oort", "refl"} {
		t.Run(sel, func(t *testing.T) {
			checkCell(t, row{"sync-" + sel, true}, "P=8", "exposition", "timeline", "trace")
		})
	}
}

func TestRunSyncLazyMatchesEager(t *testing.T) {
	for _, sel := range []string{"random", "oort"} {
		t.Run(sel, func(t *testing.T) { checkCell(t, row{"sync-" + sel, true}, "eager-backed") })
	}
}

func TestTimelineDeterminismMatrix(t *testing.T) {
	for _, engine := range []string{"sync-random", "async"} {
		for _, rw := range []row{{engine, false}, {engine, true}} {
			t.Run(rw.name(), func(t *testing.T) { checkCell(t, rw, "P=8", "timeline") })
		}
	}
}

func TestResumeMatrix(t *testing.T) {
	for _, engine := range []string{"sync-random", "sync-oort", "async"} {
		for _, rw := range []row{{engine, false}, {engine, true}} {
			t.Run(rw.name(), func(t *testing.T) { checkCell(t, rw, "resume") })
		}
	}
}

// variation is one column of the matrix: a way of running a row that must
// not change its artifacts — or, when project is set, the projection of
// them both sides are compared through.
type variation struct {
	name     string
	lazyOnly bool
	project  func(artifact) artifact
	run      func(t *testing.T, rw row) artifact
}

var variations = []variation{
	{name: "P=8", run: atP8},
	{name: "P=8-again", run: atP8},
	{name: "GOMAXPROCS=1", run: func(t *testing.T, rw row) artifact {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
		return atP8(t, rw)
	}},
	{name: "untraced", project: without("trace"), run: func(t *testing.T, rw row) artifact {
		return rw.exec(t, runOpts{untraced: true}).artifact(t)
	}},
	{name: "resume", run: func(t *testing.T, rw row) artifact {
		prefix := rw.exec(t, runOpts{rounds: half, par: 1})
		return stitch(t, prefix, rw.exec(t, runOpts{par: 8, resume: prefix.snaps[half]}))
	}},
	// The mirror split of "resume", with the snapshot carried through a file.
	{name: "resume-file", run: func(t *testing.T, rw row) artifact {
		prefix := rw.exec(t, runOpts{rounds: half, par: 8})
		path := filepath.Join(t.TempDir(), "run.ckpt")
		if err := checkpoint.WriteRaw(path, prefix.snaps[half]); err != nil {
			t.Fatal(err)
		}
		snap, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return stitch(t, prefix, rw.exec(t, runOpts{par: 1, resume: snap}))
	}},
	// The same universe materialized and held eagerly, driven through the
	// lazy selection schedule: state derivation is the only difference.
	// The ledger representation (sparse vs dense), and with it the
	// snapshots, differ by design: the ledger is compared through its
	// semantic surface. An eager population has no cache series.
	{name: "eager-backed", lazyOnly: true, run: func(t *testing.T, rw row) artifact {
		return rw.exec(t, runOpts{eagerBacked: true}).artifact(t)
	}, project: func(a artifact) artifact {
		a = without("ledger", "snapshot@3", "snapshot@last")(a)
		a["exposition"] = popSeries.ReplaceAll(a["exposition"], nil)
		a["timeline"] = popSeries.ReplaceAll(a["timeline"], nil)
		return a
	}},
}

func atP8(t *testing.T, rw row) artifact { return rw.exec(t, runOpts{par: 8}).artifact(t) }

// popSeries matches a population-cache series in an exposition (a line) or
// in a timeline sample (a key, which always follows device_ and fl_ keys).
var popSeries = regexp.MustCompile(`(?m)^pop_.*\n|,"pop_(?:[^"\\]|\\.)*":[^,}]*`)

// only projects an artifact onto the named parts.
func only(names []string) func(artifact) artifact {
	return func(a artifact) artifact {
		o := artifact{}
		for _, name := range names {
			o[name] = a[name]
		}
		return o
	}
}

// without projects an artifact onto all but the named parts.
func without(names ...string) func(artifact) artifact {
	return func(a artifact) artifact {
		a = maps.Clone(a)
		for _, name := range names {
			delete(a, name)
		}
		return a
	}
}

const (
	matrixClients = 32
	matrixRounds  = 6
	half          = matrixRounds / 2
)

// pinnedSnapshots pins the snapshot format: the SHA-256 of four rows'
// baseline snapshot at boundary 3. The matrix proves a build agrees with
// itself; these fail when a field is renamed, reordered, dropped or
// re-encoded — when older snapshots would stop resuming. The two lazy pins
// also hold the lazy probe walks (a selector's, and the async engine's
// launcher) to their schedule: one different draw moves the digest. Last
// re-recorded for container version 2 (binary sections); a version-1 blob
// is a *VersionError, not a digest mismatch.
var pinnedSnapshots = map[string]string{
	"sync-oort/eager": "ce83f62932691f592196a6afa957804fc87193135b86dda9e7f15d772c7db9d5",
	"async/eager":     "6fb42373cdd72b3d67ebebc34340a6edfd52b7ca7a70c48dd5b7b74df4e98b75",
	"async/lazy":      "4b2c094851fafd2ef3788903c024b177dabdac3ffc683143978d711cacce6df8",
	"sync-refl/lazy":  "708127e3eca4635b1ca9c3bab768e5aa8a950b72f6c963570060991f3ca4db64",
}

// checkBaseline keeps the matrix from passing vacuously: every artifact is
// produced; the exposition counts every round and the timeline samples
// each one with the engine's facts; a lazy row has a sparse ledger, every
// device-cache series and the derivation histogram, and really evicts; four
// rows' snapshots match their pins.
func checkBaseline(t *testing.T, rr *rowRun, base artifact) {
	t.Helper()
	for _, name := range artifactNames {
		if len(base[name]) == 0 {
			t.Errorf("baseline %s is empty", name)
		}
	}
	series := []string{"fl_rounds_total 6\n", "round_selected", "round_completed", "round_dropped", "round_wall_seconds"}
	if rr.async() {
		series = []string{"fl_rounds_total 6\n", "round_buffered_jobs", "model_version"}
	}
	if rr.rw.lazy {
		series = append(series, `pop_cache_hits_total{kind="device"}`, `pop_cache_misses_total{kind="device"}`,
			`pop_resident_clients{kind="device"}`, "pop_derive_samples_count")
	}
	for _, s := range series {
		if !bytes.Contains(base["exposition"], []byte(s)) && !bytes.Contains(base["timeline"], []byte(s)) {
			t.Errorf("baseline exposition and timeline both lack %q", s)
		}
	}
	if n := bytes.Count(base["timeline"], []byte("\n")); n != matrixRounds+1 {
		t.Errorf("timeline has %d lines, want a header and %d samples", n, matrixRounds)
	}
	if rr.res.Ledger.Sparse() != rr.rw.lazy {
		t.Errorf("ledger sparse = %v on a %s row", rr.res.Ledger.Sparse(), rr.rw.name())
	}
	// Every training job derives its shard once, and nothing else derives
	// one on the engine's behalf.
	if rr.rw.lazy {
		count := func(name string) string {
			m := regexp.MustCompile(`(?m)^` + name + ` (\d+)$`).FindSubmatch(base["exposition"])
			if m == nil {
				return "none"
			}
			return string(m[1])
		}
		if d, tr := count("pop_derive_samples_count"), count("fl_train_calls_total"); d != tr {
			t.Errorf("%s shard derivations observed for %s training jobs", d, tr)
		}
	}
	evictions := `pop_cache_evictions_total{kind="device"} `
	if rr.rw.lazy && (!bytes.Contains(base["exposition"], []byte(evictions)) ||
		bytes.Contains(base["exposition"], []byte(evictions+"0\n"))) {
		t.Error("device cache never evicted: the lazy row proves nothing about eviction")
	}
	checkSinks(t, rr)
	if want, ok := pinnedSnapshots[rr.rw.name()]; ok {
		sum := sha256.Sum256(base["snapshot@3"])
		if got := hex.EncodeToString(sum[:]); got != want {
			t.Errorf("snapshot@3 (%d bytes) digest %s, want %s", len(base["snapshot@3"]), got, want)
		}
	}
}

// checkSinks asserts that the sinks every client-round is booked into
// agree with each other: each selected client-round ends completed,
// dropped or discarded, exactly once in the exposition and in the ledger;
// the per-client tallies sum to the ledger's total; and the device
// observer counts the ledger's drops reason by reason.
func checkSinks(t *testing.T, rr *rowRun) {
	t.Helper()
	reg, l := rr.cfg.Metrics, rr.res.Ledger
	counter := func(name string) int { return int(reg.Counter(name).Value()) }
	selected := counter("fl_clients_selected_total")
	completed, dropped := counter("fl_clients_completed_total"), counter("fl_clients_dropped_total")
	discarded := counter("fl_updates_discarded_total")
	if selected != completed+dropped+discarded {
		t.Errorf("selected %d != completed %d + dropped %d + discarded %d", selected, completed, dropped, discarded)
	}
	if l.TotalRounds != selected || l.TotalDrops != dropped || l.Discarded != discarded {
		t.Errorf("ledger rounds/drops/discarded = %d/%d/%d, exposition %d/%d/%d",
			l.TotalRounds, l.TotalDrops, l.Discarded, selected, dropped, discarded)
	}
	sum := 0
	perClient, _ := tallies(t, l)
	for _, n := range perClient {
		sum += n
	}
	if sum != l.TotalRounds {
		t.Errorf("per-client selections sum to %d, ledger TotalRounds %d", sum, l.TotalRounds)
	}
	for r := device.DropNone; r <= device.DropDeadline; r++ {
		if got, want := counter(`device_drops_total{reason="`+r.String()+`"}`), l.DropsByReason[r]; got != want {
			t.Errorf("device_drops_total{reason=%q} = %d, ledger %d", r, got, want)
		}
	}
}

// row is one engine over one population mode.
type row struct {
	engine string // sync-random | sync-oort | sync-refl | async
	lazy   bool
}

func matrixRows() []row {
	var rows []row
	for _, engine := range []string{"sync-random", "sync-oort", "sync-refl", "async"} {
		rows = append(rows, row{engine, false}, row{engine, true})
	}
	return rows
}

func (rw row) name() string {
	if rw.lazy {
		return rw.engine + "/lazy"
	}
	return rw.engine + "/eager"
}

// runOpts is what a variation or a bespoke test changes about a row's run.
// The zero value is the baseline: six rounds at P=1, traced.
type runOpts struct {
	rounds, par int
	untraced    bool
	// eagerBacked holds a lazy row's universe eagerly (forceLazySelection).
	eagerBacked bool
	resume      []byte
	pop         *population.Population // default: a fresh one
	tweak       func(*Config)          // applied last
}

// rowRun is one run of a row with every channel attached: registry (and
// cache series on a lazy population), timeline, tracer, JSONL log, and a
// sink that keeps the snapshot of every third boundary.
type rowRun struct {
	*run
	rw    row
	log   bytes.Buffer
	snaps map[int][]byte // boundary → snapshot
}

// start builds rw's run without executing it: the one builder every engine
// run of this package's determinism and checkpoint tests goes through.
func (rw row) start(t testing.TB, o runOpts) (*rowRun, error) {
	t.Helper()
	if o.rounds == 0 {
		o.rounds = matrixRounds
	}
	p := o.pop
	if p == nil {
		p = ckptPop(t, rw.lazy && !o.eagerBacked)
	}
	rr := &rowRun{rw: rw, snaps: map[int][]byte{}}
	cfg := Config{Arch: "resnet18", Rounds: o.rounds, ClientsPerRound: 5, Epochs: 1, BatchSize: 8, LR: 0.1,
		EvalEvery: 3, Seed: 5, Parallelism: max(o.par, 1)}
	if rw.engine == "async" {
		cfg.Concurrency, cfg.BufferK = 10, 3
	}
	cfg.Metrics = obs.NewRegistry()
	p.Instrument(cfg.Metrics)
	cfg.Timeline = obs.NewTimeline(cfg.Metrics, 64)
	if !o.untraced {
		cfg.Tracer = obs.NewTracer()
	}
	cfg.Logger = NewJSONLLogger(&rr.log)
	cfg.forceLazySelection = o.eagerBacked
	cfg.Checkpoint = &CheckpointConfig{Every: half, Resume: o.resume,
		Sink: func(b []byte) error { rr.snaps[rr.done] = b; return nil }}
	if o.tweak != nil {
		o.tweak(&cfg)
	}
	kind := SyncSnapshotKind
	var sel selection.Selector
	switch rw.engine {
	case "async":
		kind = AsyncSnapshotKind
	case "sync-oort":
		sel = selection.NewOort(7)
	case "sync-refl":
		sel = selection.NewREFL(7)
	default:
		sel = selection.NewRandom(7)
	}
	var err error
	rr.run, err = newRun(kind, p, sel, newCkptCtrl(), cfg)
	return rr, err
}

// exec builds and runs rw to completion (or to a Stop).
func (rw row) exec(t testing.TB, o runOpts) *rowRun {
	t.Helper()
	rr, err := rw.start(t, o)
	if err != nil {
		t.Fatal(err)
	}
	step := rr.syncRound
	if rr.async() {
		step = rr.asyncStep
	}
	if _, err := rr.loop(step); err != nil {
		t.Fatal(err)
	}
	return rr
}

// artifact is everything a run leaves behind, as bytes.
type artifact map[string][]byte

var artifactNames = []string{"params", "log", "exposition", "timeline", "trace",
	"snapshot@3", "snapshot@last", "ledger", "ledger-surface"}

func (rr *rowRun) artifact(t testing.TB) artifact {
	t.Helper()
	var exp, tl, tr bytes.Buffer
	if err := rr.cfg.Metrics.WriteText(&exp); err != nil {
		t.Fatal(err)
	}
	if err := rr.cfg.Timeline.WriteJSONL(&tl); err != nil {
		t.Fatal(err)
	}
	if rr.cfg.Tracer != nil {
		if err := rr.cfg.Tracer.WriteJSONL(&tr); err != nil {
			t.Fatal(err)
		}
	}
	var params []byte
	for _, v := range rr.res.FinalParams {
		params = binary.LittleEndian.AppendUint64(params, math.Float64bits(v))
	}
	ledger := checkpoint.NewEnc(0)
	rr.res.Ledger.AppendCheckpoint(ledger)
	surface := fmt.Appendf(nil, "%+v\n", aggregatesOf(rr.res.Ledger))
	selected, completed := tallies(t, rr.res.Ledger)
	for id := range matrixClients {
		surface = fmt.Appendf(surface, "%d %d %d\n", id, selected[id], completed[id])
	}
	return artifact{
		"params":         params,
		"log":            slices.Clone(rr.log.Bytes()),
		"exposition":     exp.Bytes(),
		"timeline":       tl.Bytes(),
		"trace":          tr.Bytes(),
		"snapshot@3":     rr.snaps[half],
		"snapshot@last":  rr.snaps[rr.done],
		"ledger":         ledger.Bytes(),
		"ledger-surface": surface,
	}
}

// stitch joins a run stopped at a boundary and the run resumed from that
// boundary's snapshot into the artifact of one uninterrupted run. Logs
// concatenate. Traces concatenate once the stopped run's finish drain is
// cut off: for FedBuff that drain emits one "overrun" discard span per task
// the snapshot carries as still in flight — tasks the resumed run finishes.
// The cut is checked to be exactly those spans, nothing else.
func stitch(t *testing.T, prefix, rest *rowRun) artifact {
	t.Helper()
	snap := prefix.snaps[prefix.done]
	for b, s := range prefix.snaps {
		if _, ok := rest.snaps[b]; !ok {
			rest.snaps[b] = s
		}
	}
	a, p := rest.artifact(t), prefix.artifact(t)
	a["log"] = append(p["log"], a["log"]...)

	carried, err := prefix.rw.start(t, runOpts{resume: snap})
	if err != nil {
		t.Fatal(err)
	}
	want := checkpoint.SortedKeys(carried.inFlight)
	trace, drained := p["trace"], []int{}
	for len(trace) > 0 {
		i := bytes.LastIndexByte(trace[:len(trace)-1], '\n') + 1
		var s obs.Span
		if err := json.Unmarshal(trace[i:], &s); err != nil || s.Kind != "discard" || s.Note != "overrun" {
			break
		}
		drained, trace = append(drained, s.Client), trace[:i]
	}
	if slices.Sort(drained); !slices.Equal(drained, want) {
		t.Errorf("stopped run drained clients %v as overrun, want the snapshot's in-flight set %v", drained, want)
	}
	a["trace"] = append(trace, a["trace"]...)
	return a
}

// assertSame reports, once per differing artifact, the first differing
// byte between a variation's artifact and its row's baseline.
func assertSame(t *testing.T, cell string, got, want artifact) {
	t.Helper()
	for _, name := range artifactNames {
		g, w := got[name], want[name]
		if bytes.Equal(g, w) {
			continue
		}
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Errorf("%s: %s differs from the baseline at byte %d (%d vs %d bytes): got %q…, want %q…",
			cell, name, i, len(g), len(w), g[i:min(i+48, len(g))], w[i:min(i+48, len(w))])
	}
}

// ckptCtrl is a deterministic stateful controller: its decisions depend on
// every accuracy-improvement value Feedback has delivered, and its
// accumulated accuracy — part of every snapshot — on their delivery order
// too, so different training results, feedback out of order, or restored
// state that diverges all change an artifact. It cycles through techniques
// that exercise the stochastic update transforms (quantization, pruning),
// so the per-client RNG derivation is under test too.
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
func ckptPop(t testing.TB, lazy bool) *population.Population {
	t.Helper()
	p, err := population.NewLazy(lazyPopConfig(matrixClients))
	if err != nil {
		t.Fatal(err)
	}
	if lazy {
		return p
	}
	eager, err := population.WrapEager(p.Materialize())
	if err != nil {
		t.Fatal(err)
	}
	return eager
}

// tallies returns l's per-client selection and completion counts, dense in
// either mode, read back from its checkpoint section.
func tallies(t testing.TB, l *metrics.Ledger) (selected, completed []int) {
	t.Helper()
	e := checkpoint.NewEnc(0)
	l.AppendCheckpoint(e)
	d := checkpoint.NewDec(e.Bytes())
	st := metrics.DecodeLedgerState(d)
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
	if !st.Sparse {
		return st.Selected, st.Completed
	}
	selected, completed = make([]int, st.Clients), make([]int, st.Clients)
	for _, c := range st.SelectedSparse {
		selected[c.ID] = c.N
	}
	for _, c := range st.CompletedSparse {
		completed[c.ID] = c.N
	}
	return selected, completed
}

// ledgerAggregates flattens a ledger's mode-independent surface so sparse
// (lazy) and dense (eager) ledgers can be compared for semantic equality.
type ledgerAggregates struct {
	totalRounds, totalDrops, discarded        int
	neverSel, neverComp, gini, jain, dropRate float64
	wall                                      float64
	wasted                                    metrics.Inefficiency
}

func aggregatesOf(l *metrics.Ledger) ledgerAggregates {
	return ledgerAggregates{
		totalRounds: l.TotalRounds,
		totalDrops:  l.TotalDrops,
		discarded:   l.Discarded,
		neverSel:    l.NeverSelectedFraction(),
		neverComp:   l.NeverCompletedFraction(),
		gini:        l.SelectionGini(),
		jain:        l.SelectionJainIndex(),
		dropRate:    l.DropRate(),
		wall:        l.WallClockSeconds,
		wasted:      l.Wasted,
	}
}
