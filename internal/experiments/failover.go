package experiments

import (
	"fmt"
	"io"

	"diffusionlb/internal/core"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
)

func init() {
	register(Experiment{
		ID:       "failover",
		Artifact: "coupled speed+load scenarios (extension; the paper's speeds and loads are static)",
		Title:    "Failover recovery: a coupled drain moves the fast class's load AND capacity at once — FOS vs stale-beta SOS vs beta-re-optimized SOS vs adaptive hybrid",
		Run:      runFailover,
	})
}

// failoverSetup describes the shared scenario of one failover run.
type failoverSetup struct {
	side, n  int
	rounds   int
	event    int // first drain round
	drainEnd int // last drain-ramp round
	scSpec   string
	preBeta  float64 // beta_opt of the pre-drain (heterogeneous) operator
}

// failoverOutcome is the measured result of one variant.
type failoverOutcome struct {
	name       string
	series     *sim.Series
	switches   []core.SwitchEvent
	scEvents   []sim.ScenarioEvent
	betaEvents []sim.BetaEvent
	finalBeta  float64
	pre        float64 // ideal drift just before the drain starts
	post       float64 // ideal drift when the ramp completes
	recover    int     // rounds from drainEnd until drift <= pre + 8 (-1 = never)
	final      float64
}

// failoverVariants enumerates the compared schemes. "sos" keeps the
// pre-drain β_opt for the whole run (the stale-β control); "reopt" re-runs
// the power iteration when the drain moves the total speed and installs the
// post-drain β_opt; "adaptive" adds the re-arming hysteresis policy on top
// of the re-optimization — the full recovery stack.
func failoverVariants() []struct {
	name   string
	kind   core.Kind
	policy string
	reopt  bool
} {
	return []struct {
		name   string
		kind   core.Kind
		policy string
		reopt  bool
	}{
		{"fos", core.FOS, "", false},
		{"sos", core.SOS, "", false},
		{"reopt", core.SOS, "", true},
		{"adaptive", core.SOS, "adaptive:16:64:10", true},
	}
}

// failoverScenario sizes the shared scenario: a two-class torus with the
// whole fast class (a quarter of the nodes at speed 4) drained a third of
// the way in, over an 8-round ramp — speed ramps to the floor of 1 while
// the migration sheds the class's load onto its neighbors. Post-drain the
// effective network is homogeneous, so both the ideal load vector AND the
// spectrum move: β_opt drops, and a scheme that keeps balancing with the
// stale heterogeneous β pays for it every round.
func failoverScenario(p Params) failoverSetup {
	s := failoverSetup{side: p.size(8, 24, 100), rounds: p.rounds(600, 2000)}
	s.event = s.rounds / 3
	if s.event < 2 {
		s.event = 2
	}
	ramp := 8
	if s.event+ramp >= s.rounds {
		ramp = 1
	}
	s.drainEnd = s.event + ramp - 1
	s.scSpec = fmt.Sprintf("drain:at=%d,frac=0.25,ramp=%d", s.event, ramp)
	return s
}

// runFailoverVariants executes every variant of the failover scenario on
// the cell pool and returns the measured outcomes in variant order.
func runFailoverVariants(p Params) (failoverSetup, []failoverOutcome, error) {
	p = p.withDefaults()
	setup := failoverScenario(p)
	sys, err := p.topology(torus(setup.side), "twoclass:0.25:4")
	if err != nil {
		return setup, nil, err
	}
	n := sys.Graph.NumNodes()
	setup.n = n
	setup.preBeta = sys.Beta
	x0, err := metrics.ProportionalLoad(int64(n)*1000, sys.Speeds)
	if err != nil {
		return setup, nil, err
	}

	variants := failoverVariants()
	results := make([]failoverOutcome, len(variants))
	err = p.runCells(len(variants), func(i int) error {
		v := variants[i]
		own := *sys
		own.Op = sys.Op.Clone()
		proc, err := p.discrete(&own, v.kind, x0)
		if err != nil {
			return err
		}
		// Every variant gets its own scenario and policy instance built from
		// the same specs and seed, so all see identical coupled events and
		// no state leaks between cells.
		scn, err := scenario.FromSpec(setup.scSpec, n, p.Seed)
		if err != nil {
			return err
		}
		policy, err := core.PolicyFromSpec(v.policy)
		if err != nil {
			return err
		}
		var reopt *sim.BetaReopt
		if v.reopt {
			reopt = &sim.BetaReopt{Threshold: 0.1, Power: spectral.PowerOptions{Tol: 1e-10}}
		}
		runner := &sim.Runner{
			Proc:      proc,
			Scenario:  scn,
			Every:     1,
			Adaptive:  policy,
			BetaReopt: reopt,
			Metrics:   []sim.Metric{sim.IdealLoadDrift(), sim.Discrepancy(), sim.SpeedSum()},
		}
		res, err := runner.Run(setup.rounds)
		if err != nil {
			return err
		}
		drift, err := res.Series.Column("ideal_drift")
		if err != nil {
			return err
		}
		o := failoverOutcome{name: v.name, series: res.Series,
			switches: res.Switches, scEvents: res.ScenarioEvents,
			betaEvents: res.BetaEvents, finalBeta: proc.Beta()}
		o.pre = drift[setup.event-1] // Every=1: row index == round
		o.post = drift[setup.drainEnd]
		o.final = drift[len(drift)-1]
		o.recover, err = sim.RoundsToRecover(res.Series, "ideal_drift", setup.drainEnd, o.pre+8)
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

// runFailover starts every scheme from the exact speed-proportional load of
// a two-class torus and drains the entire fast class a third of the way in:
// the coupled scenario ramps their speed to the floor of 1 while migrating
// their load onto their neighbors — a correlated failure that moves the
// loads, the ideal load vector and the operator's spectrum in the same
// rounds. The schemes then race to redistribute the evacuated load across
// the now-homogeneous network: FOS at diffusion pace, SOS with momentum but
// a stale (pre-drain) β, the β-re-optimized SOS with the post-drain
// optimum, and the adaptive hybrid with both the re-arm and the re-opt.
func runFailover(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("failover")
	setup, results, err := runFailoverVariants(p)
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf(
		"torus %dx%d, twoclass:0.25:4 speeds, proportional start at 1000/unit-speed; scenario %s; pre-drain beta_opt=%.6f",
		setup.side, setup.side, setup.scSpec, setup.preBeta)); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-9s %-22s %-14s %-10s %10s %10s %12s %10s\n",
		"scheme", "scenario (rounds,moved)", "beta events", "final beta", "pre-drift", "post", "recover", "final")
	for _, o := range results {
		rec := func(r int) string {
			if r < 0 {
				return "never"
			}
			return fmt.Sprintf("%d rounds", r)
		}
		var moved int64
		for _, ev := range o.scEvents {
			moved += ev.Moved
		}
		scDesc := fmt.Sprintf("%d-%d,%d", o.scEvents[0].Round, o.scEvents[len(o.scEvents)-1].Round, moved)
		betas := "-"
		if len(o.betaEvents) > 0 {
			betas = ""
			for i, ev := range o.betaEvents {
				if i > 0 {
					betas += ","
				}
				betas += fmt.Sprintf("%d:%.3f", ev.Round, ev.Beta)
			}
		}
		fmt.Fprintf(w, "%-9s %-22s %-14s %-10.6f %10.0f %10.0f %12s %10.0f\n",
			o.name, scDesc, betas, o.finalBeta, o.pre, o.post, rec(o.recover), o.final)
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
	if err := writeSeries(w, p, "failover_recovery", m); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nshape check: every variant sees the identical drain schedule (same rounds, same node set; the migrated token count tracks each variant's own load trajectory), the drained nodes end the ramp empty while their neighbors spike, the re-optimized variants install the post-drain beta_opt the rounds the speed sum crosses the threshold, and they re-track the new homogeneous ideal measurably faster than both FOS and the stale-beta SOS")
	return err
}
