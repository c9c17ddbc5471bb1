package vfl

import (
	"fmt"
	"math"
	"math/rand"

	"floatfl/internal/device"
	"floatfl/internal/fl"
	"floatfl/internal/nn"
	"floatfl/internal/opt"
	"floatfl/internal/rngstate"
	"floatfl/internal/tensor"
	"floatfl/internal/trace"
)

// NewFederation builds the parties (bottom models + simulated devices) and
// the coordinator for a split dataset.
func NewFederation(ds *SplitDataset, cfg Config, scenario trace.Scenario) ([]*Party, *Coordinator, error) {
	cfg = cfg.withDefaults()
	rng := rand.New(rngstate.New(cfg.Seed))
	pop, err := device.NewPopulation(device.PopulationConfig{
		Clients: len(ds.Dims), Scenario: scenario, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	parties := make([]*Party, len(ds.Dims))
	for i, d := range ds.Dims {
		parties[i] = &Party{
			ID:     i,
			Bottom: nn.NewDense(d, cfg.EmbeddingDim, nn.ActReLU, rng),
			Device: pop[i],
		}
	}
	coord := &Coordinator{
		Top: nn.NewDense(cfg.EmbeddingDim*len(parties), ds.Classes, nn.ActNone, rng),
	}
	return parties, coord, nil
}

// partyWork approximates one VFL round's workload for the device cost
// model: the bottom model's forward+backward over the round's samples,
// and embedding/gradient traffic in place of model weights.
func partyWork(p *Party, cfg Config) device.WorkSpec {
	samplesPerRound := cfg.BatchSize * cfg.StepsPerRound
	// Real VFL bottom models are CNN/MLP towers; scale the reference FLOPs
	// with the party's feature share the way nn.Spec does for named models.
	flopsPerSample := int64(3 * 2 * p.Bottom.InDim() * p.Bottom.OutDim() * 2000)
	// Embedding + gradient exchange per sample, expressed in parameter
	// units (4 bytes each) so WorkSpec's RefParams accounting applies.
	commScalars := int64(2*cfg.EmbeddingDim*samplesPerRound) * 120
	if commScalars <= 0 {
		commScalars = 1
	}
	return device.WorkSpec{
		RefFLOPsPerSample: flopsPerSample,
		RefParams:         commScalars,
		Samples:           samplesPerRound,
		Epochs:            1,
	}
}

// Run executes VFL training: every round, every party's device executes
// under the controller's chosen technique; parties that miss the deadline
// contribute zero embeddings for the round (the VFL analog of a dropout).
// Completed parties' techniques also act semantically: their embeddings
// are quantized, their bottom updates pruned, or their bottom layer frozen.
func Run(ds *SplitDataset, parties []*Party, coord *Coordinator, ctrl fl.Controller, cfg Config) (*Result, error) {
	cfg = cfg.withDefaults()
	if cfg.Rounds <= 0 {
		return nil, fmt.Errorf("vfl: Rounds must be positive, got %d", cfg.Rounds)
	}
	if len(parties) != len(ds.Dims) {
		return nil, fmt.Errorf("vfl: %d parties for %d feature slices", len(parties), len(ds.Dims))
	}
	rng := rand.New(rngstate.New(cfg.Seed + 7))

	deadline := cfg.DeadlineSec
	if deadline <= 0 {
		// Budget against the slowest party's clean estimate.
		var worst float64
		for _, p := range parties {
			est := device.EstimateCleanResponseSeconds(p.Device, partyWork(p, cfg))
			worst = math.Max(worst, est)
		}
		deadline = worst * 1.5
	}

	res := &Result{
		Controller: ctrl.Name(),
		PartyDrops: make([]int, len(parties)),
	}
	hfDiff := make([]float64, len(parties))

	// Round-loop scratch, allocated once: per-party bottom-weight anchors
	// for update pruning, and the split-step buffers trainStep reuses.
	scratch := newRunScratch(ds, parties, cfg)

	for round := 0; round < cfg.Rounds; round++ {
		wall, err := runRound(ds, parties, coord, ctrl, cfg, round, deadline, hfDiff, res, rng, scratch)
		if err != nil {
			return nil, err
		}
		res.WallClockSeconds += wall
		acc := Evaluate(ds, parties, coord)
		res.TestAccHistory = append(res.TestAccHistory, acc)
	}
	res.FinalTestAcc = res.TestAccHistory[len(res.TestAccHistory)-1]
	return res, nil
}

// runScratch is the buffer set the round loop reuses: weight anchors for
// update-side pruning and trainStep's per-batch vectors.
type runScratch struct {
	anchors  []tensor.Vector // per-party bottom-weight snapshot at round start
	joint    tensor.Vector   // concatenated party embeddings
	probs    tensor.Vector   // coordinator softmax output
	lossGrad tensor.Vector   // dL/dlogits per sample
}

// newRunScratch sizes a runScratch for one federation. cfg must already
// have defaults applied.
func newRunScratch(ds *SplitDataset, parties []*Party, cfg Config) *runScratch {
	s := &runScratch{
		anchors:  make([]tensor.Vector, len(parties)),
		joint:    tensor.NewVector(cfg.EmbeddingDim * len(parties)),
		probs:    tensor.NewVector(ds.Classes),
		lossGrad: tensor.NewVector(ds.Classes),
	}
	for i, p := range parties {
		s.anchors[i] = tensor.NewVector(len(p.Bottom.W.Data))
	}
	return s
}

// runRound executes one VFL round: per-party device execution under the
// controller's techniques (phase 1), then split training with the
// technique semantics applied (phase 2). It mutates hfDiff and res's
// dropout/waste accounting and returns the round's wall-clock seconds.
func runRound(ds *SplitDataset, parties []*Party, coord *Coordinator, ctrl fl.Controller,
	cfg Config, round int, deadline float64, hfDiff []float64, res *Result,
	rng *rand.Rand, scratch *runScratch) (float64, error) {

	techs := make([]opt.Technique, len(parties))
	active := make([]bool, len(parties))
	var roundWall float64
	for i, p := range parties {
		snap := p.Device.ResourcesAt(round)
		tech := ctrl.Decide(round, p.Device, snap, hfDiff[i])
		techs[i] = tech
		out, err := device.Execute(p.Device, round, partyWork(p, cfg), tech, deadline)
		if err != nil {
			return 0, err
		}
		active[i] = out.Completed
		if out.Completed {
			hfDiff[i] = 0
			roundWall = math.Max(roundWall, out.Cost.TotalSeconds)
		} else {
			res.PartyDrops[i]++
			res.TotalDrops++
			res.WastedComputeHours += out.Cost.ComputeSeconds / 3600
			if out.Reason == device.DropDeadline {
				hfDiff[i] = out.DeadlineDiff
				roundWall = math.Max(roundWall, deadline)
			}
		}
		// VFL reports participation immediately and uses a zero accuracy
		// signal — the participation objective dominates party-side
		// decisions here.
		ctrl.Feedback(round, p.Device, tech, out, 0)
	}

	anchor := scratch.anchors
	for i, p := range parties {
		copy(anchor[i], p.Bottom.W.Data)
	}
	for step := 0; step < cfg.StepsPerRound; step++ {
		batch := sampleBatch(len(ds.Labels), cfg.BatchSize, rng)
		trainStep(ds, parties, coord, batch, active, techs, cfg, rng, scratch)
	}
	// Update-side technique semantics on bottom models: prune the round's
	// weight delta for pruning techniques. The delta is formed in place in
	// the weight buffer (W -= anchor; prune; W += anchor) so no scratch
	// vector is needed.
	for i, p := range parties {
		if !active[i] {
			continue
		}
		eff := techs[i].Effects()
		if eff.PruneFrac > 0 {
			w := p.Bottom.W.Data
			w.AddScaled(-1, anchor[i])
			opt.PruneSmallest(w, eff.PruneFrac)
			w.AddScaled(1, anchor[i])
		}
	}
	return roundWall, nil
}

func sampleBatch(n, k int, rng *rand.Rand) []int {
	if k > n {
		k = n
	}
	out := make([]int, k)
	for i := range out {
		out[i] = rng.Intn(n)
	}
	return out
}

// trainStep runs one split forward/backward over a batch. Inactive parties
// contribute zero embeddings and receive no gradients. Quantizing parties
// ship quantized embeddings (and receive quantized gradients), injecting
// the technique's genuine accuracy noise. Partial-training parties freeze
// their bottom model (the forward pass still runs).
func trainStep(ds *SplitDataset, parties []*Party, coord *Coordinator, batch []int,
	active []bool, techs []opt.Technique, cfg Config, rng *rand.Rand,
	scratch *runScratch) {

	embDim := cfg.EmbeddingDim
	coord.Top.ZeroGrad()
	for _, p := range parties {
		p.Bottom.ZeroGrad()
	}

	joint, probs := scratch.joint, scratch.probs
	for _, idx := range batch {
		// Forward: parties produce (possibly quantized) embeddings;
		// inactive parties contribute zeros. Embeddings are copied into the
		// joint buffer and quantized in place there — no per-sample clone.
		for pi, p := range parties {
			slot := joint[pi*embDim : (pi+1)*embDim]
			if !active[pi] {
				slot.Zero()
				continue
			}
			copy(slot, p.Bottom.Forward(ds.Features[pi][idx]))
			if bits := techs[pi].Effects().QuantBits; bits > 0 {
				opt.Quantize(slot, bits, rng)
			}
		}

		logits := coord.Top.Forward(joint)
		tensor.Default().Softmax(probs, logits)
		grad := scratch.lossGrad
		copy(grad, probs)
		grad[ds.Labels[idx]] -= 1
		gradJoint := coord.Top.Backward(grad, true)

		// Backward to parties: each party consumes its disjoint slice of
		// the joint gradient (quantized in place for quantizing parties —
		// the slice is not read again this sample).
		for pi, p := range parties {
			if !active[pi] {
				continue
			}
			eff := techs[pi].Effects()
			if eff.PartialFrac > 0 {
				continue // bottom frozen this round
			}
			g := gradJoint[pi*embDim : (pi+1)*embDim]
			if eff.QuantBits > 0 {
				opt.Quantize(g, eff.QuantBits, rng)
			}
			p.Bottom.Forward(ds.Features[pi][idx]) // refresh layer scratch
			// The party's input is raw features: nothing reads its
			// gradient, so the bottom tower does not compute one.
			p.Bottom.Backward(g, false)
		}
	}

	lr := cfg.LR / float64(len(batch))
	coord.Top.ApplySGD(lr, 5)
	for pi, p := range parties {
		if !active[pi] || techs[pi].Effects().PartialFrac > 0 {
			continue
		}
		p.Bottom.ApplySGD(lr, 5)
	}
}

// Evaluate returns the coordinator's accuracy on the held-out split with
// all parties participating (deployment-time inference).
func Evaluate(ds *SplitDataset, parties []*Party, coord *Coordinator) float64 {
	if len(ds.TestLabels) == 0 {
		return 0
	}
	embDim := parties[0].Bottom.OutDim()
	joint := tensor.NewVector(embDim * len(parties))
	correct := 0
	for i, label := range ds.TestLabels {
		for pi, p := range parties {
			e := p.Bottom.Forward(ds.TestFeatures[pi][i])
			copy(joint[pi*embDim:(pi+1)*embDim], e)
		}
		logits := coord.Top.Forward(joint)
		if logits.Argmax() == label {
			correct++
		}
	}
	return float64(correct) / float64(len(ds.TestLabels))
}
