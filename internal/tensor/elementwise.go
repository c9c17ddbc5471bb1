package tensor

import (
	"fmt"
	"math"
)

// The element-wise passes around a minibatch's GEMMs: the forward
// epilogue (bias, pre-activation, ReLU), the backward one (ReLU mask,
// bias gradient) and the clipped SGD step. Like the GEMMs, each has a
// packed AVX2 body (gemm_amd64.s) and a portable Go body, picked by
// useAVX2; the packed body covers whole groups of four columns and the
// portable one the rest. Both give every element the same operations
// with the same operands first, so they agree bit for bit on every
// input, NaN payloads included: where both operands of an add or a
// multiply are NaN, an amd64 result is the first operand's, quieted.

// AddBiasAct adds bias to every row of pre, in place, and sets act to the
// activation of the result: ReLU — pre > 0 ? pre : +0, so −0 and NaN give
// +0 — when relu is set, otherwise pre itself. act may be pre. Each sum is
// pre + bias, pre first.
func AddBiasAct(pre, act *Matrix, bias Vector, relu bool) {
	if act.Rows != pre.Rows || act.Cols != pre.Cols || len(bias) != pre.Cols {
		panic(fmt.Sprintf("tensor: AddBiasAct shape mismatch pre=%dx%d act=%dx%d bias=%d",
			pre.Rows, pre.Cols, act.Rows, act.Cols, len(bias)))
	}
	j0 := 0
	if useAVX2 && pre.Rows > 0 {
		if j0 = pre.Cols &^ 3; j0 > 0 {
			biasActAVX2(&pre.Data[0], &act.Data[0], &bias[0], pre.Rows, pre.Cols, j0, relu)
		}
	}
	if j0 < pre.Cols {
		addBiasAct(pre, act, bias, relu, j0)
	}
}

// addBiasAct is AddBiasAct's portable body, on columns j0 and up.
func addBiasAct(pre, act *Matrix, bias Vector, relu bool, j0 int) {
	n := pre.Cols
	bias = bias[j0:n]
	for r := 0; r < pre.Rows; r++ {
		p, o := pre.Data[r*n+j0:][:len(bias)], act.Data[r*n+j0:][:len(bias)]
		for j, v := range p {
			v += bias[j]
			p[j] = v
			if relu {
				v = reluOf(v)
			}
			o[j] = v
		}
	}
}

// MaskAddBiasGrad, when relu is set, applies the ReLU's derivative to the
// gradient rows g in place — each g[r,j] whose pre[r,j] <= 0 becomes +0,
// and a NaN pre keeps it — and then adds every row of g into gradB, rows
// in order. Each sum is g + gradB, the gradient first. pre is read only
// when relu is set.
func MaskAddBiasGrad(g, pre *Matrix, gradB Vector, relu bool) {
	if len(gradB) != g.Cols || relu && (pre.Rows != g.Rows || pre.Cols != g.Cols) {
		panic(fmt.Sprintf("tensor: MaskAddBiasGrad shape mismatch g=%dx%d pre=%dx%d gradB=%d",
			g.Rows, g.Cols, pre.Rows, pre.Cols, len(gradB)))
	}
	j0 := 0
	if useAVX2 && g.Rows > 0 {
		if j0 = g.Cols &^ 3; j0 > 0 {
			p := &g.Data[0] // never read without relu
			if relu {
				p = &pre.Data[0]
			}
			maskBiasGradAVX2(&g.Data[0], p, &gradB[0], g.Rows, g.Cols, j0, relu)
		}
	}
	if j0 < g.Cols {
		maskAddBiasGrad(g, pre, gradB, relu, j0)
	}
}

// maskAddBiasGrad is MaskAddBiasGrad's portable body, on columns j0 and
// up.
func maskAddBiasGrad(g, pre *Matrix, gradB Vector, relu bool, j0 int) {
	n := g.Cols
	gradB = gradB[j0:n]
	for r := 0; r < g.Rows; r++ {
		gr := g.Data[r*n+j0:][:len(gradB)]
		var p Vector
		if relu {
			p = pre.Data[r*n+j0:][:len(gradB)]
		}
		for j, v := range gr {
			if relu {
				v = reluGrad(p[j], v)
				gr[j] = v
			}
			gradB[j] += v
		}
	}
}

// ClipStep clips each gradient to [-clip, clip] (not when clip <= 0 or is
// NaN), writes it back to grads and adds (−lr)·g to the parameter, in one
// pass. A NaN gradient passes the clip unchanged. The product is rounded
// on its own, never fused into the add, and the add is product + param,
// the product first.
func ClipStep(params, grads Vector, lr, clip float64) {
	if len(grads) != len(params) {
		panic(fmt.Sprintf("tensor: ClipStep length mismatch %d vs %d", len(params), len(grads)))
	}
	if !(clip > 0) {
		clip = math.Inf(1)
	}
	i0 := 0
	if useAVX2 {
		if i0 = len(params) &^ 3; i0 > 0 {
			clipStepAVX2(&params[0], &grads[0], i0, -lr, -clip, clip)
		}
	}
	clipStep(params[i0:], grads[i0:], lr, clip)
}

// clipStep is ClipStep's portable body; clip is positive.
func clipStep(params, grads Vector, lr, clip float64) {
	grads = grads[:len(params)]
	for i, g := range grads {
		if g > clip {
			g = clip
		} else if g < -clip {
			g = -clip
		}
		grads[i] = g
		params[i] += float64(-lr * g)
	}
}

// reluOf is v > 0 ? v : +0 for every bit pattern, as an integer select:
// u-1 reaches +Inf's bits exactly for +0, the negatives and the NaNs.
// gc emits a conditional move; a float compare would branch on data.
func reluOf(v float64) float64 {
	u := math.Float64bits(v)
	if u-1 >= 0x7FF0000000000000 {
		u = 0
	}
	return math.Float64frombits(u)
}

// reluGrad is pre <= 0 ? +0 : g for every bit pattern, as two integer
// selects: zero when pre is +0 or has the sign bit set, unless it is NaN.
func reluGrad(pre, g float64) float64 {
	u, gb := math.Float64bits(pre), math.Float64bits(g)
	z := gb
	if int64(u) <= 0 {
		z = 0
	}
	if u<<1 > 0xFFE0000000000000 { // NaN: exponent all ones, mantissa not 0
		z = gb
	}
	return math.Float64frombits(z)
}
