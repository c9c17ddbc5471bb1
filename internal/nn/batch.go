package nn

import (
	"fmt"

	"floatfl/internal/tensor"
)

// batchView reslices m to rows×cols, growing its backing storage only when
// the capacity is insufficient — steady-state reuse allocates nothing.
func batchView(m *tensor.Matrix, rows, cols int) *tensor.Matrix {
	need := rows * cols
	if cap(m.Data) < need {
		m.Data = tensor.NewVector(need)
	}
	m.Rows, m.Cols, m.Data = rows, cols, m.Data[:need]
	return m
}

// ForwardBatch is Forward over a minibatch, one sample per row:
// Y = act(X·Wᵀ + b), one MatMulNT instead of batch MatVec calls. The
// returned matrix is owned by the layer and overwritten on the next call.
func (d *Dense) ForwardBatch(x *tensor.Matrix) *tensor.Matrix {
	if x.Cols != d.W.Cols {
		panic(fmt.Sprintf("nn: Dense.ForwardBatch input %dx%d, want cols %d", x.Rows, x.Cols, d.W.Cols))
	}
	d.bIn = x
	n := x.Rows
	pre := batchView(&d.bPre, n, d.W.Rows)
	d.be.MatMulNT(pre, x, d.W)
	out := batchView(&d.bOut, n, d.W.Rows)
	for r := 0; r < n; r++ {
		pre.Row(r).AddScaled(1, d.B)
	}
	switch d.Act {
	case ActReLU:
		for i, v := range pre.Data {
			if v > 0 {
				out.Data[i] = v
			} else {
				out.Data[i] = 0
			}
		}
	default:
		copy(out.Data, pre.Data)
	}
	return out
}

// BackwardBatch is Backward over a minibatch: it consumes dL/dOut rows
// (which it may modify), accumulates dL/dW and dL/dB, and returns dL/dIn
// rows — or nil without computing them when wantIn is false. The weight
// gradient is one accumulating GEMM (dYᵀ·X) instead of batch rank-1
// updates, and the input gradient one GEMM (dY·W) instead of batch MatVecT
// calls.
func (d *Dense) BackwardBatch(gradOut *tensor.Matrix, wantIn bool) *tensor.Matrix {
	n := gradOut.Rows
	if gradOut.Cols != d.W.Rows || d.bIn == nil || d.bIn.Rows != n {
		panic(fmt.Sprintf("nn: Dense.BackwardBatch grad %dx%d does not match forward batch",
			gradOut.Rows, gradOut.Cols))
	}
	if d.Act == ActReLU {
		for i := range gradOut.Data {
			if d.bPre.Data[i] <= 0 {
				gradOut.Data[i] = 0
			}
		}
	}
	for r := 0; r < n; r++ {
		d.GradB.AddScaled(1, gradOut.Row(r))
	}
	d.be.AddMatMulTN(d.GradW, gradOut, d.bIn)
	if !wantIn {
		return nil
	}
	gin := batchView(&d.bGradIn, n, d.W.Cols)
	d.be.MatMulNN(gin, gradOut, d.W)
	return gin
}

// lossAndGradsBatch is the minibatch counterpart of lossAndGrads: it packs
// the indexed samples into one matrix, runs the batched forward, applies
// the fused softmax+cross-entropy row by row, and backpropagates the whole
// batch through the GEMM-shaped backward path down to layer floor (see
// trainFloor). Returns the summed loss.
func (m *Model) lossAndGradsBatch(samples []Sample, idxs []int, floor int) float64 {
	n := len(idxs)
	x := batchView(&m.bx, n, m.nIn)
	for r, idx := range idxs {
		copy(x.Row(r), samples[idx].X)
	}
	h := x
	for _, d := range m.Layers {
		h = d.ForwardBatch(h)
	}
	g := batchView(&m.bGrad, n, m.nOut)
	var loss float64
	for r, idx := range idxs {
		loss += m.backend.SoftmaxXent(m.probs, g.Row(r), h.Row(r), samples[idx].Label)
	}
	for i := len(m.Layers) - 1; i >= floor; i-- {
		g = m.Layers[i].BackwardBatch(g, i > floor)
	}
	return loss
}
