package backendtests

import (
	"testing"

	"floatfl/internal/tensor"
)

// TestConformance runs the full suite against every registered backend.
// Registering a new backend makes it show up here automatically.
func TestConformance(t *testing.T) {
	names := tensor.Backends()
	if len(names) < 2 {
		t.Fatalf("expected at least ref and fast registered, got %v", names)
	}
	for _, name := range names {
		b, err := tensor.Lookup(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) { Run(t, b) })
	}
}

// TestRegistry pins the registry's behavior: sorted names, each backend
// reporting the name it was looked up by, lookup errors naming the known
// set, and Default being ref.
func TestRegistry(t *testing.T) {
	names := tensor.Backends()
	want := []string{"fast", "ref"}
	if len(names) != len(want) {
		t.Fatalf("Backends() = %v, want %v", names, want)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Fatalf("Backends() = %v, want %v", names, want)
		}
		b, err := tensor.Lookup(want[i])
		if err != nil {
			t.Fatal(err)
		}
		if b.Name() != want[i] {
			t.Errorf("Lookup(%q).Name() = %q", want[i], b.Name())
		}
	}
	if got := tensor.Default().Name(); got != "ref" {
		t.Fatalf("Default().Name() = %q, want ref", got)
	}
	if _, err := tensor.Lookup("no-such-backend"); err == nil {
		t.Fatal("Lookup of unknown backend did not error")
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

	for _, name := range tensor.Backends() {
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
