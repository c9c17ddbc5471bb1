// Command floattrace generates and exports the synthetic client resource
// traces the simulator runs on — the stand-ins for the paper artifact's
// device_info directory (4G/5G bandwidth measurements, the AI-Benchmark
// compute population, and the smartphone availability trace). Output is
// CSV on stdout, one generator per -kind.
//
// Usage:
//
//	floattrace -kind bandwidth -net 5g -steps 500 -clients 3
//	floattrace -kind compute -clients 1000
//	floattrace -kind availability -steps 300 -clients 5
//	floattrace -kind interference -scenario dynamic -steps 200 -clients 2
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"strconv"

	"floatfl/internal/rngstate"
	"floatfl/internal/trace"
)

func main() {
	var (
		kind     = flag.String("kind", "bandwidth", "bandwidth | compute | availability | interference")
		netKind  = flag.String("net", "4g", "bandwidth technology: 4g | 5g")
		scenario = flag.String("scenario", "dynamic", "interference scenario: none | static | dynamic")
		steps    = flag.Int("steps", 300, "time steps per client")
		clients  = flag.Int("clients", 5, "number of clients / devices")
		seed     = flag.Int64("seed", 42, "RNG seed")
	)
	flag.Parse()

	w := csv.NewWriter(os.Stdout)
	defer w.Flush()

	var err error
	switch *kind {
	case "bandwidth":
		err = exportBandwidth(w, *netKind, *clients, *steps, *seed)
	case "compute":
		err = exportCompute(w, *clients, *seed)
	case "availability":
		err = exportAvailability(w, *clients, *steps, *seed)
	case "interference":
		err = exportInterference(w, *scenario, *clients, *steps, *seed)
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "floattrace:", err)
		os.Exit(1)
	}
}

func exportBandwidth(w *csv.Writer, netKind string, clients, steps int, seed int64) error {
	var kind trace.NetKind
	switch netKind {
	case "4g":
		kind = trace.Net4G
	case "5g":
		kind = trace.Net5G
	default:
		return fmt.Errorf("unknown network %q", netKind)
	}
	if err := w.Write([]string{"client", "step", "mbps"}); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		tr := trace.NewBandwidthTrace(kind, seed+int64(c))
		for t := 0; t < steps; t++ {
			if err := w.Write([]string{
				strconv.Itoa(c), strconv.Itoa(t),
				strconv.FormatFloat(tr.At(t), 'f', 3, 64),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func exportCompute(w *csv.Writer, clients int, seed int64) error {
	if err := w.Write([]string{"device", "class", "gflops", "memory_mb", "energy_capacity_h"}); err != nil {
		return err
	}
	rng := rngstate.New(seed)
	for c := 0; c < clients; c++ {
		p := trace.SampleComputeProfile(rng)
		if err := w.Write([]string{
			strconv.Itoa(c), p.Class.String(),
			strconv.FormatFloat(p.GFLOPS, 'f', 2, 64),
			strconv.FormatFloat(p.MemoryMB, 'f', 0, 64),
			strconv.FormatFloat(p.EnergyCapacity, 'f', 2, 64),
		}); err != nil {
			return err
		}
	}
	return nil
}

func exportAvailability(w *csv.Writer, clients, steps int, seed int64) error {
	if err := w.Write([]string{"client", "step", "available", "battery"}); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		tr := trace.NewAvailabilityTrace(seed + int64(c))
		for t := 0; t < steps; t++ {
			avail := "0"
			if tr.Available(t) {
				avail = "1"
			}
			if err := w.Write([]string{
				strconv.Itoa(c), strconv.Itoa(t), avail,
				strconv.FormatFloat(tr.BatteryAt(t), 'f', 3, 64),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}

func exportInterference(w *csv.Writer, scenario string, clients, steps int, seed int64) error {
	sn, err := trace.ParseScenario(scenario)
	if err != nil {
		return err
	}
	if err := w.Write([]string{"client", "step", "cpu_frac", "mem_frac", "net_frac"}); err != nil {
		return err
	}
	for c := 0; c < clients; c++ {
		in := trace.NewInterference(sn, seed+int64(c))
		for t := 0; t < steps; t++ {
			cpu, mem, net := in.At(t)
			if err := w.Write([]string{
				strconv.Itoa(c), strconv.Itoa(t),
				strconv.FormatFloat(cpu, 'f', 3, 64),
				strconv.FormatFloat(mem, 'f', 3, 64),
				strconv.FormatFloat(net, 'f', 3, 64),
			}); err != nil {
				return err
			}
		}
	}
	return nil
}
