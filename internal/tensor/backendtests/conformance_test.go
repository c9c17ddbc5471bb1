package backendtests

import (
	"fmt"
	"strings"
	"testing"

	"floatfl/internal/tensor"
)

// backendNames is every registered backend name, sorted; TestRegistry
// fails when a registration is missing here.
var backendNames = []string{"fast", "ref"}

// TestConformance runs the full suite against every registered backend.
func TestConformance(t *testing.T) {
	for _, name := range backendNames {
		b, err := tensor.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { Run(t, b) })
	}
}

// TestRegistry pins the registry's behavior: each backend reporting the
// name it was looked up by, lookup errors naming the known set (sorted),
// and Default being ref.
func TestRegistry(t *testing.T) {
	for _, name := range backendNames {
		b, err := tensor.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
	if got := tensor.Default().Name(); got != "ref" {
		t.Fatalf("Default().Name() = %q, want ref", got)
	}
	_, err := tensor.Lookup("no-such-backend")
	if want := fmt.Sprintf("(available: %v)", backendNames); err == nil || !strings.HasSuffix(err.Error(), want) {
		t.Fatalf("Lookup of unknown backend: %v, want an error ending %q", err, want)
	}
}

// TestKernelsDoNotAllocate pins the "no kernel allocates" contract for
// every backend on representative hot-path shapes.
func TestKernelsDoNotAllocate(t *testing.T) {
	const m, k, n = 16, 32, 10
	a := tensor.NewMatrix(m, k)
	w := tensor.NewMatrix(n, k)
	dstNT := tensor.NewMatrix(m, n)
	kn, dstTN := tensor.NewMatrix(k, n), tensor.NewMatrix(k, n)
	x := tensor.NewVector(k)
	y := tensor.NewVector(m)
	logits := tensor.NewVector(n)
	probs, grad := tensor.NewVector(n), tensor.NewVector(n)
	for i := range a.Data {
		a.Data[i] = float64(i%7) - 3
	}
	for i := range w.Data {
		w.Data[i] = float64(i%5) - 2
	}
	for i := range x {
		x[i] = float64(i%3) - 1
	}
	for i := range logits {
		logits[i] = float64(i) / 10
	}

	for _, name := range backendNames {
		b, err := tensor.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			allocs := testing.AllocsPerRun(10, func() {
				b.MatVec(a, y, x)
				b.MatVecT(a, x, y)
				b.AddOuterScaled(a, 0.01, y, x)
				b.MatMulNT(dstNT, a, w)
				b.MatMulNN(dstNT, a, kn)
				b.AddMatMulTN(dstTN, a, dstNT)
				b.Softmax(probs, logits)
				b.SoftmaxXent(probs, grad, logits, 3)
				_ = b.Dot(x, x)
			})
			if allocs != 0 {
				t.Errorf("backend %q kernels allocate: %.1f allocs/run", name, allocs)
			}
		})
	}
}
