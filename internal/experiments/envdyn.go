package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/sim"
)

func init() {
	register(Experiment{
		ID:       "throttle",
		Artifact: "time-varying environments (extension; the paper's speeds are fixed)",
		Title:    "Re-tracking a moved ideal load: FOS vs SOS vs re-arming adaptive hybrid after half the fast nodes are throttled mid-run",
		Run:      runThrottle,
	})
}

// throttleSetup describes the shared scenario of one throttle run.
type throttleSetup struct {
	side, n int
	rounds  int
	event   int
	envSpec string
}

// throttleOutcome is the measured result of one scheme variant.
type throttleOutcome struct {
	name        string
	series      *sim.Series
	switches    []core.SwitchEvent
	speedEvents []sim.SpeedEvent
	pre         float64 // ideal drift just before the event
	post        float64 // ideal drift the round the target moved
	retrack     int     // rounds until drift <= pre + 8 (-1 = never)
	final       float64
}

// throttleVariants enumerates the compared schemes. The adaptive hysteresis
// band plateau-switches to FOS on the balanced start; the throttle event
// re-inflates the speed-normalized local difference past the upper
// threshold the same round the operator is reweighted, which re-arms SOS.
func throttleVariants() []struct {
	name   string
	kind   core.Kind
	policy string
} {
	return []struct {
		name   string
		kind   core.Kind
		policy string
	}{
		{"fos", core.FOS, ""},
		{"sos", core.SOS, ""},
		{"adaptive", core.SOS, "adaptive:16:64:10"},
	}
}

// throttleScenario sizes the shared scenario: a two-class torus (a quarter
// of the nodes at speed 4) starting from the exact speed-proportional load,
// with half of the fast capacity throttled to speed 1 a third of the way in.
func throttleScenario(p Params) throttleSetup {
	s := throttleSetup{side: p.size(8, 24, 100), rounds: p.rounds(600, 2000)}
	s.event = s.rounds / 3
	if s.event < 2 {
		s.event = 2
	}
	s.envSpec = fmt.Sprintf("throttle:at=%d,frac=0.125,factor=0.25", s.event)
	return s
}

// runThrottleVariants executes every variant of the throttle scenario on
// the cell pool and returns the measured outcomes in variant order.
func runThrottleVariants(p Params) (throttleSetup, []throttleOutcome, error) {
	p = p.withDefaults()
	setup := throttleScenario(p)
	// The heterogeneous operator needs its own power iteration; build it
	// once and clone per variant — environment dynamics reweight in place,
	// so concurrent cells must not share the operator.
	sys, err := p.topology(torus(setup.side), "twoclass:0.25:4")
	if err != nil {
		return setup, nil, err
	}
	n := sys.Graph.NumNodes()
	setup.n = n
	x0, err := metrics.ProportionalLoad(int64(n)*1000, sys.Speeds)
	if err != nil {
		return setup, nil, err
	}

	variants := throttleVariants()
	results := make([]throttleOutcome, len(variants))
	err = p.runCells(len(variants), func(i int) error {
		v := variants[i]
		own := *sys
		own.Op = sys.Op.Clone()
		proc, err := p.discrete(&own, v.kind, x0)
		if err != nil {
			return err
		}
		// Every variant gets its own dynamics and policy instance built from
		// the same specs and seed, so all see identical speed trajectories
		// and no state leaks between cells.
		env, err := envdyn.FromSpec(setup.envSpec, n, p.Seed)
		if err != nil {
			return err
		}
		policy, err := core.PolicyFromSpec(v.policy)
		if err != nil {
			return err
		}
		runner := &sim.Runner{
			Proc:        proc,
			Environment: env,
			Every:       1,
			Adaptive:    policy,
			Metrics:     []sim.Metric{sim.IdealLoadDrift(), sim.Discrepancy(), sim.SpeedSum()},
		}
		res, err := runner.Run(setup.rounds)
		if err != nil {
			return err
		}
		drift, err := res.Series.Column("ideal_drift")
		if err != nil {
			return err
		}
		o := throttleOutcome{name: v.name, series: res.Series,
			switches: res.Switches, speedEvents: res.SpeedEvents}
		o.pre = drift[setup.event-1] // Every=1: row index == round
		o.post = drift[setup.event]
		o.final = drift[len(drift)-1]
		o.retrack, err = sim.RoundsToRecover(res.Series, "ideal_drift", setup.event, o.pre+8)
		if err != nil {
			return err
		}
		results[i] = o
		return nil
	})
	if err != nil {
		return setup, nil, err
	}
	return setup, results, nil
}

// runThrottle starts every scheme from the exact speed-proportional load of
// a two-class torus and throttles half the fast nodes (an eighth of all
// nodes, speed 4 → 1) a third of the way in. The ideal load vector moves
// with the speeds, so the drift max|x_i − x̄_i| jumps without any token
// having moved, and the schemes race to re-track the new target: FOS at
// diffusion pace, SOS with momentum, and the adaptive hybrid — which
// plateau-switched to FOS on the balanced start — re-arms SOS the round the
// reweighted operator inflates the speed-normalized local difference.
func runThrottle(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("throttle")
	setup, results, err := runThrottleVariants(p)
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf(
		"torus %dx%d, twoclass:0.25:4 speeds, proportional start at 1000/unit-speed; environment %s",
		setup.side, setup.side, setup.envSpec)); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-9s %-28s %-24s %10s %10s %12s %10s\n",
		"scheme", "switches", "speed events", "pre-drift", "post", "retrack", "final")
	for _, o := range results {
		rec := func(r int) string {
			if r < 0 {
				return "never"
			}
			return fmt.Sprintf("%d rounds", r)
		}
		events := "-"
		if len(o.speedEvents) > 0 {
			events = ""
			for i, ev := range o.speedEvents {
				if i > 0 {
					events += ","
				}
				events += fmt.Sprintf("%d(%d)", ev.Round, ev.Nodes)
			}
		}
		fmt.Fprintf(w, "%-9s %-28s %-24s %10.0f %10.0f %12s %10.0f\n",
			o.name, switchHistory(o.switches), events, o.pre, o.post, rec(o.retrack), o.final)
	}

	prefixes := make([]string, len(results))
	series := make([]*sim.Series, len(results))
	for i, o := range results {
		prefixes[i] = o.name + "_"
		series[i] = o.series
	}
	m, err := merged(prefixes, series)
	if err != nil {
		return err
	}
	if err := writeSeries(w, p, "throttle_retrack", m); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nshape check: every variant sees the identical speed event (same round, same node count), the drift jumps the event round because the target moved — not the loads — and the adaptive hybrid re-arms SOS on the event (the >SOS entry above), re-tracking the new ideal measurably faster than FOS")
	return err
}
