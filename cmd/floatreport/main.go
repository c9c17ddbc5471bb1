// Command floatreport reads a run directory written by floatsim -out or
// floatbench -out and prints a view of each artifact present, in order:
// the training log (participation, dropout causes, per-technique outcomes,
// resource totals — the analog of the paper artifact's `<dataset>_logging`
// analysis; -trend adds the per-round completion trend), the phase trace
// (phase times, slowest clients, drop/lease/timer events), and the FLOAT
// agent (the Fig 10 per-action objectives — the artifact's load_Q.py;
// -states adds the per-state greedy policy). -csv prints only the agent's
// per-state policy as CSV. It exits 1 when the directory holds none of the
// three files and 2 on a usage error.
//
// The diff subcommand compares the timelines of two run directories and
// reports the first divergent round per series. It exits 0 when they are
// identical, 1 on any divergence, and 2 on a usage error or a directory
// without a timeline, so it doubles as a determinism check in CI.
//
// Usage:
//
//	floatsim -dataset femnist -controller float -out run
//	floatreport -trend -states run
//	floatreport -csv run > policy.csv
//	floatreport diff run-a run-b
package main

import (
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"floatfl/internal/report"
	"floatfl/internal/rl"
)

var (
	trend  = flag.Bool("trend", false, "also print the log's per-round completion trend")
	states = flag.Bool("states", false, "also print the agent's per-state greedy policy")
	csvOut = flag.Bool("csv", false, "print only the agent's per-state policy as CSV")
)

const usage = "usage: floatreport [-trend] [-states] [-csv] DIR | floatreport diff DIR-A DIR-B"

// view prints one artifact of a run directory.
type view struct {
	file string
	show func(io.Reader) error
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "diff" {
		os.Exit(runDiff(os.Args[2:]))
	}
	flag.Parse()
	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, usage)
		os.Exit(2)
	}
	dir := flag.Arg(0)
	views := []view{{report.LogFile, printLog}, {report.TraceFile, printTrace}, {report.AgentFile, printAgent}}
	if *csvOut {
		views = []view{{report.AgentFile, printPolicyCSV}}
	}
	printed := 0
	for _, v := range views {
		f, err := os.Open(filepath.Join(dir, v.file))
		if errors.Is(err, fs.ErrNotExist) {
			continue
		}
		if err != nil {
			fatal(err)
		}
		if printed > 0 {
			fmt.Println()
		}
		err = v.show(f)
		f.Close()
		if err != nil {
			fatal(fmt.Errorf("%s: %w", v.file, err))
		}
		printed++
	}
	if printed == 0 {
		fatal(fmt.Errorf("nothing to read in %s", dir))
	}
}

func printLog(r io.Reader) error {
	sum, err := report.Parse(r)
	if err != nil {
		return err
	}
	sum.Fprint(os.Stdout)
	if *trend {
		fmt.Println("\nper-round completion fraction:")
		for i, frac := range sum.ParticipationTrend() {
			fmt.Printf("  round %3d  %5.1f%%  %s\n", sum.Rounds[i].Round, frac*100, strings.Repeat("#", int(frac*40)))
		}
	}
	return nil
}

func printTrace(r io.Reader) error {
	ts, err := report.ParseTrace(r)
	if err != nil {
		return err
	}
	ts.Fprint(os.Stdout)
	return nil
}

func printAgent(r io.Reader) error {
	a, err := rl.ReadAgent(r)
	if err != nil {
		return err
	}
	fmt.Printf("agent: %d states, %.1f KB\n\n", a.StatesVisited(), float64(a.MemoryBytes())/1024)
	fmt.Println("per-action learned objectives (visit-weighted across states):")
	summary := a.ActionSummary()
	sort.SliceStable(summary, func(i, j int) bool { return summary[i].Visits > summary[j].Visits })
	report.FprintActions(os.Stdout, summary)
	if *states {
		fmt.Println("\nper-state greedy policy (CPU/Mem/Net/HF bins -> action):")
		for _, ps := range a.PolicyDump() {
			fmt.Printf("  %-24s -> %-10s (Q=%.3f, visits=%d)\n", ps.State, ps.Action, ps.Q, ps.Visits)
		}
	}
	return nil
}

func printPolicyCSV(r io.Reader) error {
	a, err := rl.ReadAgent(r)
	if err != nil {
		return err
	}
	records := [][]string{{"gb", "ge", "gk", "cpu", "mem", "net", "hf", "action", "q", "visits"}}
	for _, ps := range a.PolicyDump() {
		st := ps.State
		records = append(records, []string{
			strconv.Itoa(st.GB), strconv.Itoa(st.GE), strconv.Itoa(st.GK),
			strconv.Itoa(st.CPU), strconv.Itoa(st.Mem), strconv.Itoa(st.Net), strconv.Itoa(st.HF),
			ps.Action.String(),
			strconv.FormatFloat(ps.Q, 'f', 4, 64),
			strconv.Itoa(ps.Visits),
		})
	}
	return csv.NewWriter(os.Stdout).WriteAll(records)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "floatreport:", err)
	os.Exit(1)
}

// runDiff implements `floatreport diff A B`: exit 0 when the two run
// directories' timelines are identical, 1 on divergence, 2 on usage or
// read errors.
func runDiff(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, usage)
		return 2
	}
	runs := make([]*report.TimelineRun, 2)
	for i, dir := range args {
		f, err := os.Open(filepath.Join(dir, report.TimelineFile))
		if err != nil {
			fmt.Fprintln(os.Stderr, "floatreport:", err)
			return 2
		}
		runs[i], err = report.LoadTimelineRun(f)
		f.Close()
		if err != nil {
			fmt.Fprintf(os.Stderr, "floatreport: %s: %v\n", dir, err)
			return 2
		}
	}
	d := report.DiffTimelines(runs[0], runs[1])
	d.Fprint(os.Stdout, args[0], args[1])
	if d.Identical() {
		return 0
	}
	return 1
}
