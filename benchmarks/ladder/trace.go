package main

import (
	"bufio"
	"encoding/json"
	"io"
	"sync"
	"time"
)

// now is the ladder's one wall-clock read; everything it times is real
// cost, which never flows back into the engines' deterministic outputs.
func now() time.Time {
	//lint:allow no-wall-clock the benchmark harness measures real elapsed time from outside the engines
	return time.Now()
}

// epoch anchors span timestamps so they fit comfortably in an int64 of
// nanoseconds and read as offsets into the process.
var epoch = now()

func stamp() int64 { return int64(now().Sub(epoch)) }

// span is one timed stretch at a layer boundary. Parent is the index of
// the enclosing span in the recorder (-1 for a root), so a span file line
// can be joined to its cause without searching.
type span struct {
	Workload string `json:"workload"`
	Layer    string `json:"layer"`
	Name     string `json:"name"`
	Lap      int    `json:"lap"`
	Round    int    `json:"round"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Parent   int    `json:"parent"`
}

func (s span) interval() interval { return interval{s.StartNS, s.EndNS} }
func (s span) seconds() float64   { return float64(s.EndNS-s.StartNS) / 1e9 }

// recorder keeps the spans of one traced run in memory until the workload
// ends. The engine seams call it from one goroutine; dist-loopback's
// handlers and drivers call it from several, hence the mutex.
type recorder struct {
	workload string
	mu       sync.Mutex
	spans    []span
}

// add appends a finished span and returns its index.
func (r *recorder) add(layer, name string, lap, round int, start, end int64, parent int) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		Workload: r.workload, Layer: layer, Name: name, Lap: lap, Round: round,
		StartNS: start, EndNS: end, Parent: parent,
	})
	return len(r.spans) - 1
}

// writeJSONL writes one span per line.
func (r *recorder) writeJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for i := range r.spans {
		if err := enc.Encode(&r.spans[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// named returns the spans called layer.name, in recording order.
func (r *recorder) named(layer, name string) []span {
	var out []span
	for _, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// selfSeconds returns, for every span called layer.name, its duration
// minus the time its direct children cover.
func (r *recorder) selfSeconds(layer, name string) []float64 {
	children := make(map[int][]interval)
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.interval())
		}
	}
	var out []float64
	for i, s := range r.spans {
		if s.Layer == layer && s.Name == name {
			out = append(out, float64(selfTime(s.interval(), children[i]))/1e9)
		}
	}
	return out
}

func spanSeconds(spans []span) []float64 {
	out := make([]float64, len(spans))
	for i, s := range spans {
		out[i] = s.seconds()
	}
	return out
}

// meanNS is the mean duration of spans in nanoseconds, 0 when there are none.
func meanNS(spans []span) float64 {
	if len(spans) == 0 {
		return 0
	}
	var sum int64
	for _, s := range spans {
		sum += s.EndNS - s.StartNS
	}
	return float64(sum) / float64(len(spans))
}
