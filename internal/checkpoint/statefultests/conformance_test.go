package statefultests_test

import (
	"testing"

	"floatfl/internal/checkpoint"
	"floatfl/internal/checkpoint/statefultests"
	"floatfl/internal/core"
	"floatfl/internal/device"
	"floatfl/internal/obs"
	"floatfl/internal/opt"
	"floatfl/internal/rl"
	"floatfl/internal/selection"
	"floatfl/internal/trace"
)

// controller is what the suite drives a core controller through.
type controller interface {
	checkpoint.Stateful
	Decide(round int, c *device.Client, res device.Resources, hfDiff float64) opt.Technique
	Feedback(round int, c *device.Client, tech opt.Technique, out device.Outcome, accImprove float64)
}

func clients(t *testing.T, n int) []*device.Client {
	t.Helper()
	pop, err := device.NewPopulation(device.PopulationConfig{Clients: n, Scenario: trace.ScenarioDynamic, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	return pop
}

// driveController runs four rounds of decide + feedback, leaving three
// decisions of the last round pending — the async boundary's shape.
func driveController(t *testing.T, s checkpoint.Stateful) {
	f := s.(controller)
	for round := 0; round < 4; round++ {
		for _, c := range clients(t, 12) {
			res := c.ResourcesAt(round)
			tech := f.Decide(round, c, res, 0)
			if round == 3 && c.ID%4 == 2 {
				continue
			}
			f.Feedback(round, c, tech, device.Outcome{Completed: c.ID%3 != 0, Resources: res}, 0.01*float64(c.ID))
		}
	}
}

func newFloat(perClient bool) func(*testing.T) checkpoint.Stateful {
	return func(*testing.T) checkpoint.Stateful {
		return core.New(core.Config{
			Agent: rl.Config{Seed: 1}, BatchSize: 16, Epochs: 2, ClientsPerRound: 4,
			PerClient: perClient, Metrics: obs.NewRegistry(),
		})
	}
}

func driveAgent(t *testing.T, s checkpoint.Stateful) {
	a := s.(interface {
		SelectAction(rl.State) opt.Technique
		Update(round int, s rl.State, tech opt.Technique, participated bool, accImprove float64) error
	})
	for i := 0; i < 40; i++ {
		st := rl.State{GB: i % 3, GE: 1, GK: 2, CPU: i % 5, Mem: (i * 3) % 5, Net: i % 2, HF: i % 4}
		if err := a.Update(i, st, a.SelectAction(st), i%3 != 0, 0.01*float64(i%7-3)); err != nil {
			t.Fatal(err)
		}
	}
}

func driveSelector(t *testing.T, s checkpoint.Stateful) {
	sel := s.(selection.Selector)
	pool, err := device.NewPopulation(device.PopulationConfig{Clients: 24, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		info := selection.RoundInfo{Round: round, DeadlineSec: 120,
			Work: device.WorkSpec{RefFLOPsPerSample: 1e6, RefParams: 1e5, Samples: 64, Epochs: 1}}
		for i, id := range sel.Select(info, pool, 4) {
			sel.Observe(selection.Feedback{
				ClientID: id, Round: round, StatUtility: float64(id%7) + 0.5,
				Outcome: device.Outcome{Completed: i%2 == 0, Reason: device.DropDeadline, Cost: device.Cost{TotalSeconds: float64(10 + id)}},
			})
		}
	}
}

// registryTimeline is a timeline together with the registry it samples,
// so the driver can move the instruments.
type registryTimeline struct {
	*obs.Timeline
	reg *obs.Registry
}

func timeline(capacity int) func(*testing.T) checkpoint.Stateful {
	return func(*testing.T) checkpoint.Stateful {
		reg := obs.NewRegistry()
		return registryTimeline{obs.NewTimeline(reg, capacity), reg}
	}
}

// driveTimeline takes ten samples — more than the small ring holds, so
// that row snapshots a ring that has folded — over a counter, a gauge that
// goes quiet, a histogram, and an extra series that first appears late.
func driveTimeline(t *testing.T, s checkpoint.Stateful) {
	tl := s.(registryTimeline)
	c, g := tl.reg.Counter("t_events_total"), tl.reg.Gauge("t_level")
	h := tl.reg.Histogram("t_latency_seconds", []float64{1, 10})
	for round := 0; round < 10; round++ {
		c.Inc()
		g.Set(float64(round / 4))
		h.Observe(float64(round))
		var extra []obs.SeriesValue
		if round >= 5 {
			extra = append(extra, obs.SeriesValue{Name: "late", Value: float64(round)})
		}
		tl.Sample(round, float64(round)*1.5, extra...)
	}
}

func subjects() map[string]statefultests.Subject {
	return map[string]statefultests.Subject{
		"core.Float/collective": {Fresh: newFloat(false), Drive: driveController},
		"core.Float/per-client": {Fresh: newFloat(true), Drive: driveController},
		"core.Heuristic": {
			Fresh: func(*testing.T) checkpoint.Stateful { return core.NewHeuristic(3) },
			Drive: driveController,
		},
		"rl.Agent": {
			Fresh: func(*testing.T) checkpoint.Stateful { return rl.NewAgent(rl.Config{Seed: 9}) },
			Drive: driveAgent,
		},
		"selection.Random": {
			Fresh: func(*testing.T) checkpoint.Stateful { return selection.NewRandom(77) },
			Drive: driveSelector,
		},
		"selection.Oort": {
			Fresh: func(*testing.T) checkpoint.Stateful { return selection.NewOort(77) },
			Drive: driveSelector,
		},
		"selection.REFL": {
			Fresh: func(*testing.T) checkpoint.Stateful { return selection.NewREFL(77) },
			Drive: driveSelector,
		},
		"obs.Timeline":        {Fresh: timeline(64), Drive: driveTimeline},
		"obs.Timeline/folded": {Fresh: timeline(4), Drive: driveTimeline},
	}
}

// TestConformance runs the suite over every component that implements
// checkpoint.Stateful. The engine kinds (internal/fl) and the dist server
// run the same suite from their own packages.
func TestConformance(t *testing.T) {
	for name, sub := range subjects() {
		t.Run(name, func(t *testing.T) { statefultests.Run(t, sub) })
	}
}
