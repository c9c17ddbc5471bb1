package tensor

import (
	"fmt"
	"sort"
	"sync"
)

// Backend is the pluggable implementation of the kernels that dominate
// training time. Two implementations ship with the repository:
//
//   - "ref": the determinism oracle. Each output element gets a fixed
//     sequence of floating-point operations (the sequential scalar-loop
//     order), which never changes; independent outputs may interleave.
//     The P=1≡P=8 golden tests and every committed golden trace bind to
//     those sequences.
//   - "fast": tiled GEMMs with register-blocked inner loops, an unrolled
//     Dot, and a fused softmax+cross-entropy. Deterministic for a fixed
//     binary (no randomness, no data races), but those kernels sum in
//     another order than ref, so they agree with ref only to rounding
//     (see the conformance suite's ulp policy in backendtests). Its
//     matrix–vector kernels are ref's and match it bit for bit.
//
// Contracts shared by every backend:
//
//   - Shape mismatches panic (they are programming errors, exactly as the
//     underlying kernels have always treated them).
//   - Softmax and SoftmaxXent permit dst (probs/grad) to alias src fully
//     (dst == src); partial overlap is undefined. ScaledDiff permits dst
//     to alias a or b. All other kernels require non-overlapping dst.
//   - No kernel allocates.
type Backend interface {
	// Name is the registry key ("ref", "fast").
	Name() string
	// Batched reports whether the backend wants the minibatch GEMM-shaped
	// forward/backward path: nn processes a whole batch as matrix-matrix
	// products (MatMulNT/MatMulNN/AddMatMulTN) instead of per-sample
	// MatVec calls when this is true.
	Batched() bool

	// Dot returns the inner product of a and b.
	Dot(a, b Vector) float64
	// AddScaled performs dst += alpha*w.
	AddScaled(dst Vector, alpha float64, w Vector)
	// ScaledDiff writes dst = alpha*(a-b); dst may alias a or b.
	ScaledDiff(dst Vector, alpha float64, a, b Vector)
	// AddWeighted performs dst += Σ_k weights[k]·vecs[k] in slice order.
	AddWeighted(dst Vector, weights []float64, vecs []Vector)

	// MatVec computes dst = m·x.
	MatVec(m *Matrix, dst, x Vector)
	// MatVecT computes dst = mᵀ·x.
	MatVecT(m *Matrix, dst, x Vector)
	// AddOuterScaled performs m += alpha*(a ⊗ b).
	AddOuterScaled(m *Matrix, alpha float64, a, b Vector)

	// MatMulNT computes dst = a·bᵀ (a: M×K, b: N×K, dst: M×N) — the
	// GEMM shape of a batched Dense forward (X·Wᵀ).
	MatMulNT(dst, a, b *Matrix)
	// MatMulNN computes dst = a·b (a: M×K, b: K×N, dst: M×N) — the shape
	// of batched input gradients (dY·W).
	MatMulNN(dst, a, b *Matrix)
	// AddMatMulTN performs dst += aᵀ·b (a: K×M, b: K×N, dst: M×N) — the
	// accumulating shape of batched weight gradients (dYᵀ·X).
	AddMatMulTN(dst, a, b *Matrix)

	// Softmax writes softmax(src) into dst (dst may alias src), with the
	// edge-case semantics documented on the package-level Softmax.
	Softmax(dst, src Vector)
	// SoftmaxXent fuses softmax, cross-entropy loss, and the loss
	// gradient: probs = softmax(logits), grad = probs - onehot(label),
	// returns -log(max(probs[label], 1e-12)). probs and grad must each
	// have len(logits); label must index logits.
	SoftmaxXent(probs, grad, logits Vector, label int) float64
}

var (
	backendMu  sync.RWMutex
	backendReg = map[string]Backend{}
)

// Register adds a backend to the registry. It panics on an empty name or a
// duplicate registration — backends are wired at init time, so both are
// programming errors.
func Register(b Backend) {
	name := b.Name()
	if name == "" {
		panic("tensor: Register called with an empty backend name")
	}
	backendMu.Lock()
	defer backendMu.Unlock()
	if _, dup := backendReg[name]; dup {
		panic(fmt.Sprintf("tensor: backend %q registered twice", name))
	}
	backendReg[name] = b
}

// Lookup returns the named backend, or an error naming the known set.
func Lookup(name string) (Backend, error) {
	backendMu.RLock()
	defer backendMu.RUnlock()
	if b, ok := backendReg[name]; ok {
		return b, nil
	}
	return nil, fmt.Errorf("tensor: unknown backend %q (available: %v)", name, backendNamesLocked())
}

// Backends returns the registered backend names, sorted.
func Backends() []string {
	backendMu.RLock()
	defer backendMu.RUnlock()
	return backendNamesLocked()
}

func backendNamesLocked() []string {
	names := make([]string, 0, len(backendReg))
	for name := range backendReg {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// Default returns the reference backend — the determinism oracle every
// model starts on until explicitly switched.
func Default() Backend { return refBackend{} }

func init() {
	Register(refBackend{})
	Register(fastBackend{})
}

// Shape checks shared by every backend implementation, so all backends
// panic identically on the same misuse.

func checkMatMulNT(dst, a, b *Matrix) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: MatMulNT shape mismatch dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkMatMulNN(dst, a, b *Matrix) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: MatMulNN shape mismatch dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkAddMatMulTN(dst, a, b *Matrix) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: AddMatMulTN shape mismatch dst=%dx%d a=%dx%d b=%dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
}

func checkSoftmaxXent(probs, grad, logits Vector, label int) {
	if len(probs) != len(logits) || len(grad) != len(logits) {
		panic(fmt.Sprintf("tensor: SoftmaxXent length mismatch probs=%d grad=%d logits=%d",
			len(probs), len(grad), len(logits)))
	}
	if label < 0 || label >= len(logits) {
		panic(fmt.Sprintf("tensor: SoftmaxXent label %d out of range [0,%d)", label, len(logits)))
	}
}
