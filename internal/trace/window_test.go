package trace

import (
	"math"
	"testing"
)

// TestNegativeStepReadsStepZero pins one contract for all three processes:
// a negative step reads step 0, on a fresh trace and on one that has moved
// past its window.
func TestNegativeStepReadsStepZero(t *testing.T) {
	cases := []struct {
		name string
		// open builds a fresh trace and returns a reader of step t.
		open func() func(t int) [4]float64
	}{
		{"bandwidth", func() func(int) [4]float64 {
			b := NewBandwidthTrace(Net5G, 17)
			return func(t int) [4]float64 { return [4]float64{b.At(t)} }
		}},
		{"interference", func() func(int) [4]float64 {
			in := NewInterference(ScenarioDynamic, 17)
			return func(t int) [4]float64 {
				cpu, mem, net := in.At(t)
				return [4]float64{cpu, mem, net}
			}
		}},
		{"availability", func() func(int) [4]float64 {
			a := NewAvailabilityTrace(17)
			return func(t int) [4]float64 {
				a.RecordUseAmount(0.3)
				var on float64
				if a.Available(t) {
					on = 1
				}
				return [4]float64{on, a.BatteryAt(t)}
			}
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			want := c.open()(0)
			for _, step := range []int{-1, -7, math.MinInt} {
				read := c.open()
				if got := read(step); got != want {
					t.Fatalf("fresh read of step %d = %v, step 0 = %v", step, got, want)
				}
				read(10)
				if got := read(step); got != want {
					t.Fatalf("read of step %d after step 10 = %v, step 0 = %v", step, got, want)
				}
			}
		})
	}
}

// FuzzTraceAccess holds reads in any order to a strictly forward read of a
// fresh trace. The input decodes into reads (forward, inside the two-step
// window, before it, and negative) and battery drains across the three
// processes; every value read must equal the reference bit for bit, and a
// read before the window must leave the live trace where it was.
func FuzzTraceAccess(f *testing.F) {
	f.Add(int64(1), []byte{0, 3, 0, 3, 2, 0, 0, 3, 1, 0, 1, 5, 3, 40, 0, 2, 1, 1})
	f.Add(int64(-9), []byte{0, 9, 3, 200, 0, 9, 1, 0, 1, 200, 5, 0, 0, 1, 2, 0, 1, 3})
	f.Add(int64(1<<40+5), []byte{0, 1, 0, 1, 0, 1, 0, 1, 1, 4, 2, 2, 5, 1, 1, 0})
	f.Fuzz(func(t *testing.T, seed int64, ops []byte) {
		if len(ops) > 512 {
			ops = ops[:512]
		}
		kind := NetKind(seed & 1)
		scenario := Scenario(uint64(seed>>1) % 3)
		bw, in, av := NewBandwidthTrace(kind, seed), NewInterference(scenario, seed), NewAvailabilityTrace(seed)

		type read struct {
			step int
			v    [5]float64 // bandwidth, cpu, mem, net, battery
			on   bool
		}
		var reads []read
		hi := 0 // highest step read so far
		readAll := func(step int) {
			r := read{step: step, v: [5]float64{bw.At(step)}}
			r.v[1], r.v[2], r.v[3] = in.At(step)
			r.on, r.v[4] = av.Available(step), av.BatteryAt(step)
			reads = append(reads, r)
			hi = max(hi, step)
		}
		for i := 0; i+1 < len(ops); i += 2 {
			arg := int(ops[i+1])
			switch ops[i] % 6 {
			case 0: // forward
				readAll(hi + arg%4)
			case 1: // anywhere up to hi, most often before the window
				step := hi - arg%(hi+1)
				n0, bn0, in0 := av.StepsGenerated(), bw.n, in.n
				readAll(step)
				if step < n0-2 {
					if av.StepsGenerated() != n0 || bw.n != bn0 || in.n != in0 {
						t.Fatalf("read of step %d before the window moved the traces: steps %d/%d/%d, were %d/%d/%d",
							step, av.StepsGenerated(), bw.n, in.n, n0, bn0, in0)
					}
					av.RecordUseAmount(0.2)
					log := av.DrainLog()
					if got := log[len(log)-1].Step; got != n0 {
						t.Fatalf("RecordUseAmount after a read before the window logged step %d, want %d", got, n0)
					}
				}
			case 2:
				readAll(-1 - arg)
			case 3:
				av.RecordUseAmount(0.2)
			case 4:
				av.RecordUseAmount(float64(arg) / 255)
			case 5: // the window's older slot, as Execute's t after t+1
				readAll(max(av.StepsGenerated()-2, 0))
			}
		}

		rbw, rin, rav := NewBandwidthTrace(kind, seed), NewInterference(scenario, seed), NewAvailabilityTrace(seed)
		rav.ReplayDrains(av.DrainLog())
		ref := make([]read, hi+1)
		for s := range ref {
			r := read{step: s, v: [5]float64{rbw.At(s)}}
			r.v[1], r.v[2], r.v[3] = rin.At(s)
			r.on, r.v[4] = rav.Available(s), rav.BatteryAt(s)
			ref[s] = r
		}
		for i, r := range reads {
			want := ref[max(r.step, 0)]
			for j := range r.v {
				if math.Float64bits(r.v[j]) != math.Float64bits(want.v[j]) {
					t.Fatalf("read %d (step %d): value %d is %v, forward reference %v", i, r.step, j, r.v[j], want.v[j])
				}
			}
			if r.on != want.on {
				t.Fatalf("read %d (step %d): available %v, forward reference %v", i, r.step, r.on, want.on)
			}
		}
	})
}
