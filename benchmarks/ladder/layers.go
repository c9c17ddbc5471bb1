package main

import (
	"io"
	"math/rand"
	"runtime"
	"sort"
	"strings"

	"floatfl/internal/checkpoint"
	"floatfl/internal/data"
	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/metrics"
	"floatfl/internal/nn"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/population"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// perLayer lists the metrics every traced run reports, named after the
// module they measure. A workload that never enters a layer reports 0 for
// that layer's traced metrics: no calls were made and no time was spent.
var perLayer = []metricDef{
	{"fl.select_phase_s", "s", "lower"},
	{"fl.dispatch_s", "s", "lower"},
	{"fl.fanout_s", "s", "lower"},
	{"fl.collect_s", "s", "lower"},
	{"fl.close_s", "s", "lower"},
	{"fl.round_self_s", "s", "lower"},
	{"fl.async_interval_self_s", "s", "lower"},
	{"fl.parallel_speedup", "ratio", "higher"},
	{"fl.fanout_kernel_share", "ratio", "higher"},
	{"tensor.kernel_busy_s", "s", "lower"},
	{"tensor.kernel_calls", "count", "lower"},
	{"tensor.matvec_ns.ref", "ns", "lower"},
	{"tensor.matvec_ns.fast", "ns", "lower"},
	{"tensor.matmul_nt_ns.ref", "ns", "lower"},
	{"tensor.matmul_nt_ns.fast", "ns", "lower"},
	{"tensor.softmax_xent_ns.ref", "ns", "lower"},
	{"tensor.softmax_xent_ns.fast", "ns", "lower"},
	{"nn.train_us_per_sample.ref", "us", "lower"},
	{"nn.train_us_per_sample.fast", "us", "lower"},
	{"nn.evaluate_ms", "ms", "lower"},
	{"nn.marshal_us", "us", "lower"},
	{"nn.unmarshal_us", "us", "lower"},
	{"nn.model_kb", "KB", "lower"},
	{"opt.apply_us", "us", "lower"},
	{"opt.compress_us", "us", "lower"},
	{"opt.decompress_us", "us", "lower"},
	{"opt.wire_bytes_per_update", "B", "lower"},
	{"device.execute_ns", "ns", "lower"},
	{"population.derive_us", "us", "lower"},
	{"population.hit_ns", "ns", "lower"},
	{"population.new_lazy_ms", "ms", "lower"},
	{"population.miss_share", "ratio", "lower"},
	{"selection.select_s_p50", "s", "lower"},
	{"selection.observe_ns", "ns", "lower"},
	{"core.decide_ns", "ns", "lower"},
	{"core.feedback_ns", "ns", "lower"},
	{"metrics.record_ns.dense", "ns", "lower"},
	{"metrics.record_ns.sparse", "ns", "lower"},
	{"obs.overhead_share", "ratio", "lower"},
	{"obs.timeline_sample_us", "us", "lower"},
	{"obs.write_text_ms", "ms", "lower"},
	{"obs.trace_write_ms", "ms", "lower"},
	{"checkpoint.snapshot_ms_p50", "ms", "lower"},
	{"checkpoint.snapshot_ms_p90", "ms", "lower"},
	{"checkpoint.snapshot_kb_p50", "KB", "lower"},
	{"checkpoint.snapshot_kb_last", "KB", "lower"},
	{"checkpoint.decode_ms", "ms", "lower"},
	{"dist.task_server_ms_p50", "ms", "lower"},
	{"dist.update_server_ms_p50", "ms", "lower"},
	{"dist.update_server_ms_p90", "ms", "lower"},
	{"dist.aggregate_ms_p50", "ms", "lower"},
	{"dist.server_busy_share", "ratio", "lower"},
	{"dist.step_ms_p50", "ms", "lower"},
	{"dist.step_ms_p90", "ms", "lower"},
	{"dist.client_compute_ms_p50", "ms", "lower"},
	{"dist.wire_ms_p50", "ms", "lower"},
	{"dist.task_resp_kb", "KB", "lower"},
	{"dist.update_req_kb", "KB", "lower"},
	{"dist.register_ms", "ms", "lower"},
	{"dist.snapshot_ms", "ms", "lower"},
	{"dist.snapshot_kb", "KB", "lower"},
	{"dist.retries", "count", "lower"},
	{"dist.no_slot", "count", "lower"},
	{"trace.overhead_share", "ratio", "lower"},
	{"round_s_p90", "s", "lower"},
}

// layerMetrics fills out with every per-layer metric of a traced run.
func layerMetrics(cfg runConfig, rec *recorder, plain, traced []*lap, out map[string]metric) {
	v := map[string]float64{}
	timed := func(layer, name string) []span { return pastWarmup(rec.named(layer, name)) }
	p50 := func(spans []span) float64 { return median(spanSeconds(spans)) }

	// fl: the sync phases tile a round; the engine's own sequential time
	// is what is left of the four sequential phases once the seam calls
	// inside them are taken out.
	for _, phase := range []string{"select_phase", "dispatch", "fanout", "collect", "close"} {
		v["fl."+phase+"_s"] = p50(timed("fl", phase))
	}
	self := map[[2]int]float64{}
	for _, phase := range []string{"select_phase", "dispatch", "collect", "close"} {
		secs := rec.selfSeconds("fl", phase)
		for i, s := range rec.named("fl", phase) {
			if s.Round >= warmupRounds {
				self[[2]int{s.Lap, s.Round}] += secs[i]
			}
		}
	}
	v["fl.round_self_s"] = median(mapValues(self))
	var asyncSelf []float64
	secs := rec.selfSeconds("fl", "interval")
	for i, s := range rec.named("fl", "interval") {
		if s.Round >= warmupRounds {
			asyncSelf = append(asyncSelf, secs[i])
		}
	}
	v["fl.async_interval_self_s"] = median(asyncSelf)

	// tensor: kernel time and calls per traced lap, from the counting
	// backend; against the fan-out window across all workers.
	var busy, calls []float64
	var busySum, fanoutSum float64
	for _, st := range traced {
		busy = append(busy, st.kernelS)
		calls = append(calls, float64(st.kernelN))
		busySum += st.kernelS
	}
	for _, s := range rec.named("fl", "fanout") {
		fanoutSum += s.seconds()
	}
	v["tensor.kernel_busy_s"] = median(busy)
	v["tensor.kernel_calls"] = median(calls)
	if fanoutSum > 0 {
		v["fl.fanout_kernel_share"] = busySum / (float64(cfg.par) * fanoutSum)
	}

	v["selection.select_s_p50"] = p50(timed("selection", "select"))
	v["selection.observe_ns"] = meanNS(timed("selection", "observe"))
	v["core.decide_ns"] = meanNS(timed("core", "decide"))
	v["core.feedback_ns"] = meanNS(timed("core", "feedback"))

	var lookups, misses int64
	for _, st := range traced {
		lookups += st.cacheLookups
		misses += st.cacheMisses
	}
	if lookups > 0 {
		v["population.miss_share"] = float64(misses) / float64(lookups)
	}

	// checkpoint: Stop → Sink, and the sizes the sink saw.
	snaps := sortedCopy(spanSeconds(timed("checkpoint", "snapshot")))
	v["checkpoint.snapshot_ms_p50"] = percentile(snaps, 50) * 1e3
	v["checkpoint.snapshot_ms_p90"] = percentile(snaps, 90) * 1e3
	var last *lap
	for _, st := range traced {
		if n := len(st.snapBytes); n > 0 {
			last = st
			kb := make([]float64, n)
			for i, b := range st.snapBytes {
				kb[i] = float64(b) / 1024
			}
			v["checkpoint.snapshot_kb_p50"] = median(kb)
			v["checkpoint.snapshot_kb_last"] = kb[n-1]
		}
	}

	for _, st := range traced {
		if st.dist != nil {
			st.dist.metrics(v)
			break
		}
	}

	var a, b []float64
	for _, st := range traced {
		a = append(a, st.roundSeconds()...)
	}
	for _, st := range plain {
		b = append(b, st.roundSeconds()...)
	}
	if mb := median(b); mb > 0 {
		v["trace.overhead_share"] = median(a)/mb - 1
	}
	// The tail of the whole round, from the untraced laps, reduced like
	// the end-to-end metrics.
	v["round_s_p90"] = goodQuartile(plain, "lower", perLap["round_s_p90"])

	probeLayers(cfg, last, v)
	sliceMetrics(cfg, v)
	for _, d := range perLayer {
		out[d.name] = metric{v[d.name], d.unit}
	}
}

func pastWarmup(spans []span) []span {
	out := spans[:0:0]
	for _, s := range spans {
		if s.Round >= warmupRounds {
			out = append(out, s)
		}
	}
	return out
}

func mapValues(m map[[2]int]float64) []float64 {
	out := make([]float64, 0, len(m))
	for _, x := range m {
		out = append(out, x)
	}
	sort.Float64s(out)
	return out
}

// metrics reduces a traced dist-loopback lap to the dist.* numbers. Rounds
// inside the warm-up are left out of the percentiles.
func (t *distTrace) metrics(v map[string]float64) {
	ms := func(ns int64) float64 { return float64(ns) / 1e6 }
	var task, update, wire, taskKB, updKB, steps, compute []float64
	// The slowest update handler of a round is the one that aggregates.
	closing := make([]float64, len(t.lap.bounds)-1)
	var handlerNS int64
	noSlot := 0
	for _, q := range t.reqs {
		if q.status == 204 {
			noSlot++
		}
		if !q.handlerSeen || !strings.HasPrefix(q.path, "/v1/") {
			continue
		}
		h := q.hEnd - q.hStart
		if q.path == "/v1/task" || q.path == "/v1/update" {
			handlerNS += h
		}
		if q.round < warmupRounds {
			continue
		}
		switch q.path {
		case "/v1/task":
			task = append(task, ms(h))
			taskKB = append(taskKB, float64(q.respBytes)/1024)
			wire = append(wire, ms(q.end-q.start-h))
		case "/v1/update":
			update = append(update, ms(h))
			updKB = append(updKB, float64(q.reqBytes)/1024)
			wire = append(wire, ms(q.end-q.start-h))
			if ms(h) > closing[q.round] {
				closing[q.round] = ms(h)
			}
		}
	}
	for _, s := range t.steps {
		if s.round < warmupRounds {
			continue
		}
		var kids []interval
		for _, id := range s.requests {
			kids = append(kids, interval{t.reqs[id].start, t.reqs[id].end})
		}
		steps = append(steps, ms(s.end-s.start))
		compute = append(compute, ms(selfTime(interval{s.start, s.end}, kids)))
	}
	update, steps = sortedCopy(update), sortedCopy(steps)
	v["dist.task_server_ms_p50"] = median(task)
	v["dist.update_server_ms_p50"] = percentile(update, 50)
	v["dist.update_server_ms_p90"] = percentile(update, 90)
	v["dist.aggregate_ms_p50"] = median(dropWarmup(closing))
	if t.wallNS > 0 {
		v["dist.server_busy_share"] = float64(handlerNS) / float64(t.wallNS)
	}
	v["dist.step_ms_p50"] = percentile(steps, 50)
	v["dist.step_ms_p90"] = percentile(steps, 90)
	v["dist.client_compute_ms_p50"] = median(compute)
	v["dist.wire_ms_p50"] = median(wire)
	v["dist.task_resp_kb"] = median(taskKB)
	v["dist.update_req_kb"] = median(updKB)
	var reg []float64
	for _, ns := range t.registerNS {
		reg = append(reg, ms(ns))
	}
	v["dist.register_ms"] = median(reg)
	v["dist.snapshot_ms"] = ms(t.snapshotNS)
	v["dist.snapshot_kb"] = t.snapshotKB
	v["dist.retries"] = float64(t.retries)
	v["dist.no_slot"] = float64(noSlot)
}

// prober times isolated calls: until it has `samples` timings or `budget`
// seconds have passed, whichever is first, and reports the median.
type prober struct {
	samples int
	budget  float64
}

// ns returns the median nanoseconds of one fn call. Calls shorter than the
// clock's useful resolution are timed in batches.
func (p prober) ns(fn func()) float64 {
	const minBatchNS = 20_000
	batch := 1
	for {
		t := stamp()
		for i := 0; i < batch; i++ {
			fn()
		}
		if d := stamp() - t; d >= minBatchNS || batch >= 1<<20 {
			break
		}
		batch *= 2
	}
	t0 := now()
	var timings []float64
	for len(timings) < p.samples && (len(timings) == 0 || now().Sub(t0).Seconds() < p.budget) {
		t := stamp()
		for i := 0; i < batch; i++ {
			fn()
		}
		timings = append(timings, float64(stamp()-t)/float64(batch))
	}
	return median(timings)
}

// probeLayers runs the isolated probes on inputs shaped like the
// workload's: its dataset profile, its architecture, its batch size.
// lastAsync is the last traced async-durable lap, nil on other workloads.
func probeLayers(cfg runConfig, lastAsync *lap, v map[string]float64) {
	sz, p := cfg.sz, cfg.prober
	fed, err := data.Generate(sz.Dataset, data.GenerateConfig{Clients: 4, Alpha: 0.1, Seed: cfg.seed})
	if err != nil {
		return
	}
	prof := fed.Profile
	rng := rand.New(rand.NewSource(cfg.seed))
	model, err := nn.NewModel(sz.Arch, prof.Dim, prof.Classes, rng)
	if err != nil {
		return
	}
	shard := fed.Train[0]
	for _, c := range fed.Train {
		if len(c) > len(shard) {
			shard = c
		}
	}

	// tensor: the first hidden layer's shapes, on both backends.
	hidden := model.Spec.Hidden[0]
	w := tensor.NewMatrix(hidden, prof.Dim)
	tensor.RandnInto(w.Data, 1, rng)
	x, h := tensor.NewVector(prof.Dim), tensor.NewVector(hidden)
	tensor.RandnInto(x, 1, rng)
	xb, hb := tensor.NewMatrix(sz.Batch, prof.Dim), tensor.NewMatrix(sz.Batch, hidden)
	tensor.RandnInto(xb.Data, 1, rng)
	logits := tensor.NewVector(prof.Classes)
	tensor.RandnInto(logits, 1, rng)
	probs, grad := tensor.NewVector(prof.Classes), tensor.NewVector(prof.Classes)
	for _, name := range []string{"ref", "fast"} {
		be, err := tensor.Lookup(name)
		if err != nil {
			return
		}
		v["tensor.matvec_ns."+name] = p.ns(func() { be.MatVec(w, h, x) })
		v["tensor.matmul_nt_ns."+name] = p.ns(func() { be.MatMulNT(hb, xb, w) })
		v["tensor.softmax_xent_ns."+name] = p.ns(func() { be.SoftmaxXent(probs, grad, logits, 1) })

		model.SetBackend(be)
		tc := nn.TrainConfig{Epochs: 1, BatchSize: sz.Batch, LR: 0.1, GradClip: 5, Seed: cfg.seed}
		v["nn.train_us_per_sample."+name] = p.ns(func() { _, _ = model.Train(shard, tc) }) / 1e3 / float64(len(shard))
	}

	// nn: evaluation on the global test set and the model codec, on the
	// workload's own backend.
	if be, err := tensor.Lookup(sz.Backend); err == nil {
		model.SetBackend(be)
	}
	v["nn.evaluate_ms"] = p.ns(func() { model.Evaluate(fed.GlobalTest) }) / 1e6
	blob, _ := model.MarshalBinary()
	v["nn.marshal_us"] = p.ns(func() { _, _ = model.MarshalBinary() }) / 1e3
	v["nn.unmarshal_us"] = p.ns(func() { _ = model.UnmarshalBinary(blob) }) / 1e3
	v["nn.model_kb"] = float64(len(blob)) / 1024

	// opt: one real update through the quant8 transform and the wire codec.
	before := model.Parameters().Clone()
	_, _ = model.Train(shard, nn.TrainConfig{Epochs: 1, BatchSize: sz.Batch, LR: 0.1, GradClip: 5, Seed: cfg.seed})
	delta := tensor.NewVector(model.NumParams())
	tensor.ScaledDiff(delta, 1, model.Parameters(), before)
	scratch := delta.Clone()
	v["opt.apply_us"] = p.ns(func() {
		copy(scratch, delta)
		opt.ApplyToUpdate(opt.TechQuant8, scratch, rng)
	}) / 1e3
	wireBlob, err := opt.CompressUpdate(delta, 16)
	if err != nil {
		return
	}
	v["opt.compress_us"] = p.ns(func() { _, _ = opt.CompressUpdate(delta, 16) }) / 1e3
	v["opt.decompress_us"] = p.ns(func() { _, _ = opt.DecompressUpdate(wireBlob) }) / 1e3
	v["opt.wire_bytes_per_update"] = float64(len(wireBlob))

	// device: the cost model, cycling over a small population so battery
	// drain and availability take their usual mix of paths.
	pop, err := device.NewPopulation(device.PopulationConfig{Clients: 64, Scenario: trace.ScenarioDynamic, Seed: cfg.seed})
	if err != nil {
		return
	}
	work := device.WorkSpec{
		RefFLOPsPerSample: model.Spec.RefFLOPs, RefParams: model.Spec.RefParams,
		Samples: len(shard), Epochs: sz.Epochs,
	}
	i := 0
	v["device.execute_ns"] = p.ns(func() {
		_, _ = device.Execute(pop[i%len(pop)], i/len(pop), work, opt.TechNone, 1e6)
		i++
	})

	// metrics: one ledger record, dense and sparse, over ids that stay few
	// enough for the dense ledger's pages to be resident.
	ids := sz.Clients
	if ids > 1<<16 {
		ids = 1 << 16
	}
	okOutcome := device.Outcome{Completed: true}
	for name, led := range map[string]*metrics.Ledger{
		"dense":  metrics.NewLedger(ids),
		"sparse": metrics.NewSparseLedger(ids),
	} {
		id := 0
		v["metrics.record_ns."+name] = p.ns(func() {
			led.Record(id%ids, opt.TechNone, okOutcome)
			id += 7919
		})
	}

	if sz.CacheClients > 0 {
		probePopulation(cfg, work, v)
	}
	if lastAsync != nil {
		probeDurable(p, lastAsync, v)
	}
}

// probePopulation times the lazy population: deriving a client it has
// never seen, hitting one it has, and building it.
func probePopulation(cfg runConfig, work device.WorkSpec, v map[string]float64) {
	sz, p := cfg.sz, cfg.prober
	pc := population.Config{
		Dataset: sz.Dataset, Clients: sz.Clients, Alpha: 0.1, Seed: cfg.seed,
		Scenario: trace.ScenarioDynamic, CacheClients: sz.CacheClients,
	}
	pop, err := population.NewLazy(pc)
	if err != nil {
		return
	}
	touch := func(id int) {
		pop.AcquireClient(id)
		pop.AcquireShard(id)
		pop.Release(id)
	}
	id := 0
	v["population.derive_us"] = p.ns(func() { touch(id % sz.Clients); id += 104_729 }) / 1e3
	touch(1)
	v["population.hit_ns"] = p.ns(func() { touch(1) })
	v["population.new_lazy_ms"] = p.ns(func() {
		fresh, err := population.NewLazy(pc)
		if err != nil {
			return
		}
		fresh.MeanShardSize()
		fresh.CleanResponseEstimates(work)
	}) / 1e6
}

// probeDurable times the telemetry writers and the snapshot decoder on
// what the last traced async-durable lap left behind.
func probeDurable(p prober, l *lap, v map[string]float64) {
	round := 0
	tl := obs.NewTimeline(l.obsReg, obs.DefaultTimelineCapacity)
	tick := l.obsReg.Counter("ladder_probe_ticks_total")
	v["obs.timeline_sample_us"] = p.ns(func() {
		tick.Inc()
		tl.Sample(round, float64(round))
		round++
	}) / 1e3
	v["obs.write_text_ms"] = p.ns(func() { _ = l.obsReg.WriteText(io.Discard) }) / 1e6
	v["obs.trace_write_ms"] = p.ns(func() { _ = l.obsTracer.WriteJSONL(io.Discard) }) / 1e6
	v["checkpoint.decode_ms"] = p.ns(func() {
		_, _ = checkpoint.DecodeBytes(l.lastSnapshot, fl.AsyncSnapshotKind)
	}) / 1e6
}

// sliceMetrics runs the extra short engine runs two ratios need.
func sliceMetrics(cfg runConfig, v map[string]float64) {
	throughput := func(par int) float64 {
		c := cfg
		c.par = par
		st, err := runLap(c, 0, nil)
		if err != nil || st.timedS <= 0 {
			return 0
		}
		return float64(st.out.clientRounds) / st.timedS
	}
	switch cfg.w.name {
	case "sync-train":
		// P=nproc against P=1 on the same rounds; with one processor
		// there is nothing to compare and the metric stays 0.
		if cfg.par > 1 {
			if one := throughput(1); one > 0 {
				v["fl.parallel_speedup"] = throughput(cfg.par) / one
			}
		}
	case "async-durable":
		// CPU with the four telemetry channels on against off, with
		// checkpoints off in both.
		cpu := func(channels bool) float64 {
			runtime.GC()
			l := newLap(0, true, nil)
			_, err := asyncRun(l, cfg.sz, lapSeed(cfg, 0), cfg.par, channels, false)
			l.finish()
			if err != nil {
				return 0
			}
			return l.cpuS
		}
		if off := cpu(false); off > 0 {
			v["obs.overhead_share"] = cpu(true)/off - 1
		}
	}
}
