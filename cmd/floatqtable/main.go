// Command floatqtable inspects a saved RLHF agent Q-table — the analog of
// the paper artifact's load_Q.py. It prints the visit-weighted per-action
// objectives (the Fig 10 panels) and, with -states, the per-state greedy
// policy.
//
// Usage:
//
//	floatsim -dataset femnist -controller float -save-agent agent.ck
//	floatqtable -in agent.ck
//	floatqtable -in agent.ck -states
package main

import (
	"encoding/csv"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"

	"floatfl/internal/rl"
)

func main() {
	var (
		in     = flag.String("in", "", "path to a saved agent Q-table (floatsim -save-agent)")
		states = flag.Bool("states", false, "also dump the per-state greedy policy")
		csvOut = flag.Bool("csv", false, "emit the per-state policy as CSV (for plotting Fig 10 heat maps)")
		bins   = flag.Int("bins", rl.DefaultBins, "bin resolution the agent was trained with")
	)
	flag.Parse()
	if *in == "" {
		fmt.Fprintln(os.Stderr, "floatqtable: -in is required")
		os.Exit(2)
	}

	f, err := os.Open(*in)
	if err != nil {
		fatal(err)
	}
	defer f.Close()

	agent := rl.NewAgent(rl.Config{Bins: *bins})
	if err := agent.Load(f); err != nil {
		fatal(err)
	}

	fmt.Printf("agent: %d states, %.1f KB\n\n", agent.StatesVisited(), float64(agent.MemoryBytes())/1024)
	fmt.Println("per-action learned objectives (visit-weighted across states):")
	fmt.Printf("  %-10s %12s %12s %8s\n", "action", "P(success)", "acc-improve", "visits")
	summary := agent.ActionSummary()
	sort.Slice(summary, func(i, j int) bool { return summary[i].Visits > summary[j].Visits })
	for _, st := range summary {
		fmt.Printf("  %-10s %12.3f %12.3f %8d\n", st.Technique, st.Part, st.Acc, st.Visits)
	}

	if *csvOut {
		w := csv.NewWriter(os.Stdout)
		if err := w.Write([]string{"gb", "ge", "gk", "cpu", "mem", "net", "hf", "action", "q", "visits"}); err != nil {
			fatal(err)
		}
		for _, ps := range agent.PolicyDump() {
			st := ps.State
			if err := w.Write([]string{
				strconv.Itoa(st.GB), strconv.Itoa(st.GE), strconv.Itoa(st.GK),
				strconv.Itoa(st.CPU), strconv.Itoa(st.Mem), strconv.Itoa(st.Net), strconv.Itoa(st.HF),
				ps.Action.String(),
				strconv.FormatFloat(ps.Q, 'f', 4, 64),
				strconv.Itoa(ps.Visits),
			}); err != nil {
				fatal(err)
			}
		}
		w.Flush()
		if err := w.Error(); err != nil {
			fatal(err)
		}
		return
	}

	if *states {
		fmt.Println("\nper-state greedy policy (CPU/Mem/Net/HF bins -> action):")
		for _, ps := range agent.PolicyDump() {
			fmt.Printf("  %-24s -> %-10s (Q=%.3f, visits=%d)\n", ps.State, ps.Action, ps.Q, ps.Visits)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floatqtable:", err)
	os.Exit(1)
}
