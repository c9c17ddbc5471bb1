// Package opt implements the client-side acceleration techniques FLOAT
// chooses among: model-update quantization (8/16 bit), magnitude pruning
// (25/50/75%), and partial training (25/50/75% of layers frozen), plus a
// lossless varint/RLE codec used to size quantized sparse updates on the
// wire. Each technique has two faces kept deliberately in sync:
//
//   - a *semantic* effect on the model update (quantization noise, zeroed
//     weights, frozen layers) that genuinely alters training accuracy, and
//   - a *cost* effect (multipliers on compute time, bytes on the wire, and
//     training memory) consumed by the device simulator.
//
// The relative cost shapes follow the paper's observations: quantization
// mostly relieves communication; pruning relieves both communication and
// computation; partial training primarily relieves computation.
package opt

import "fmt"

// Technique enumerates the optimization actions. TechNone is the
// "no acceleration" baseline; the remaining eight are FLOAT's action space
// (the paper's RLHF agent uses 8 actions).
type Technique int

const (
	// TechNone applies no acceleration.
	TechNone Technique = iota
	// TechQuant16 quantizes the model update to 16-bit integers.
	TechQuant16
	// TechQuant8 quantizes the model update to 8-bit integers.
	TechQuant8
	// TechPrune25 zeroes the 25% smallest-magnitude update entries.
	TechPrune25
	// TechPrune50 zeroes the 50% smallest-magnitude update entries.
	TechPrune50
	// TechPrune75 zeroes the 75% smallest-magnitude update entries.
	TechPrune75
	// TechPartial25 freezes ~25% of layers during local training.
	TechPartial25
	// TechPartial50 freezes ~50% of layers during local training.
	TechPartial50
	// TechPartial75 freezes ~75% of layers during local training.
	TechPartial75
	// TechCompress applies the lossless varint/RLE codec to a 16-bit
	// quantized update: smaller uploads than raw float32 at a small
	// compression compute cost, with no additional accuracy loss beyond
	// 16-bit quantization. Not part of the paper's 8-action space; it is
	// the reference "new acceleration technique" for extending the agent
	// (the linear search-space growth claim of RQ5).
	TechCompress

	// NumTechniques counts all techniques including TechNone.
	NumTechniques = int(TechCompress) + 1
)

// Actions returns FLOAT's 8-action space (everything except TechNone).
func Actions() []Technique {
	return []Technique{
		TechQuant16, TechQuant8,
		TechPrune25, TechPrune50, TechPrune75,
		TechPartial25, TechPartial50, TechPartial75,
	}
}

// All returns every technique including TechNone and the extension
// techniques outside the paper's 8-action space.
func All() []Technique {
	out := make([]Technique, 0, NumTechniques)
	for t := TechNone; int(t) < NumTechniques; t++ {
		out = append(out, t)
	}
	return out
}

func (t Technique) String() string {
	switch t {
	case TechNone:
		return "none"
	case TechQuant16:
		return "quant16"
	case TechQuant8:
		return "quant8"
	case TechPrune25:
		return "prune25"
	case TechPrune50:
		return "prune50"
	case TechPrune75:
		return "prune75"
	case TechPartial25:
		return "partial25"
	case TechPartial50:
		return "partial50"
	case TechPartial75:
		return "partial75"
	case TechCompress:
		return "compress"
	default:
		return fmt.Sprintf("Technique(%d)", int(t))
	}
}

// Parse maps a technique name back to its value.
func Parse(s string) (Technique, error) {
	for _, t := range All() {
		if t.String() == s {
			return t, nil
		}
	}
	return 0, fmt.Errorf("opt: unknown technique %q", s)
}

// Effects captures both the semantic parameters and the cost multipliers of
// a technique. Factors multiply the unoptimized cost (1.0 = unchanged).
type Effects struct {
	// QuantBits is 8 or 16 when quantizing, else 0.
	QuantBits int
	// PruneFrac is the fraction of update entries zeroed (0 = none).
	PruneFrac float64
	// PartialFrac is the fraction of layers frozen during training.
	PartialFrac float64

	// ComputeFactor scales local training time.
	ComputeFactor float64
	// CommFactor scales the bytes of the uploaded model update.
	CommFactor float64
	// DownloadFactor scales the bytes of the downloaded global model
	// (quantized or pruned global models ship smaller; partial training
	// still needs the full model for its forward pass).
	DownloadFactor float64
	// MemoryFactor scales peak training memory.
	MemoryFactor float64
}

// Effects returns the technique's semantic/cost description.
func (t Technique) Effects() Effects {
	switch t {
	case TechQuant16:
		// Halves bytes both ways; quantize/dequantize adds a little compute.
		return Effects{QuantBits: 16, ComputeFactor: 1.03, CommFactor: 0.5, DownloadFactor: 0.5, MemoryFactor: 0.95}
	case TechQuant8:
		return Effects{QuantBits: 8, ComputeFactor: 1.05, CommFactor: 0.25, DownloadFactor: 0.25, MemoryFactor: 0.9}
	case TechPrune25:
		return pruneEffects(0.25)
	case TechPrune50:
		return pruneEffects(0.50)
	case TechPrune75:
		return pruneEffects(0.75)
	case TechPartial25:
		return partialEffects(0.25)
	case TechPartial50:
		return partialEffects(0.50)
	case TechPartial75:
		return partialEffects(0.75)
	case TechCompress:
		// Lossless beyond the 16-bit grid: ~0.45x upload in practice for
		// sparse-ish updates, with compression CPU overhead and no extra
		// accuracy degradation.
		return Effects{QuantBits: 16, ComputeFactor: 1.08, CommFactor: 0.45, DownloadFactor: 0.5, MemoryFactor: 1}
	default:
		return Effects{ComputeFactor: 1, CommFactor: 1, DownloadFactor: 1, MemoryFactor: 1}
	}
}

// pruneEffects: pruning relieves communication proportionally (sparse
// upload with ~5% index overhead) and computation sub-proportionally
// (masked weights skip multiply-accumulates but the dense schedule keeps
// some overhead), and trims training memory.
func pruneEffects(frac float64) Effects {
	return Effects{
		PruneFrac:      frac,
		ComputeFactor:  1 - float64(0.7*frac),
		CommFactor:     (1 - frac) + float64(0.03*frac),
		DownloadFactor: (1 - frac) + float64(0.03*frac),
		MemoryFactor:   1 - float64(0.5*frac),
	}
}

// partialEffects: freezing layers removes their backward pass and update —
// a strong compute saving — but the forward pass and download are intact,
// so communication barely improves (only frozen layers are omitted from
// the upload, offset by bookkeeping) and memory improves modestly.
func partialEffects(frac float64) Effects {
	return Effects{
		PartialFrac:    frac,
		ComputeFactor:  1 - float64(0.9*frac),
		CommFactor:     1 - float64(0.35*frac),
		DownloadFactor: 1,
		MemoryFactor:   1 - float64(0.4*frac),
	}
}
