package experiments

import (
	"fmt"
	"io"
	"strings"

	"diffusionlb/internal/core"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/workload"
)

func init() {
	register(Experiment{
		ID:       "churn",
		Artifact: "dynamic workloads (extension; the paper's simulations are static-only)",
		Title:    "Recovery under dynamic load: FOS vs SOS vs one-shot hybrid vs re-arming adaptive hybrid hit by two hotspot bursts over background churn",
		Run:      runChurn,
	})
}

// churnSetup describes the shared scenario of one churn run.
type churnSetup struct {
	side, n        int
	rounds         int
	burst1, burst2 int
	wlSpec         string
}

// churnOutcome is the measured result of one scheme variant.
type churnOutcome struct {
	name     string
	series   *sim.Series
	switches []core.SwitchEvent
	pre      float64 // discrepancy just before the first burst
	peak     float64
	recover1 int // rounds to recover from the first burst (-1 = never)
	recover2 int // rounds to recover from the second burst (-1 = never)
	final    float64
}

// churnVariants enumerates the compared schemes. The one-shot hybrid
// switches to FOS on the (balanced, hence already-plateaued) start and
// never looks back; the adaptive hysteresis band re-arms SOS whenever a
// burst pushes φ_local over the upper threshold.
func churnVariants() []struct {
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
		{"hybrid", core.SOS, "local:16"},
		{"adaptive", core.SOS, "adaptive:16:64:10"},
	}
}

// churnScenario sizes the shared scenario: every scheme starts from a
// balanced torus under light background churn and absorbs two identical
// hotspot bursts — the second lands well after the plateau policies have
// switched to FOS, which is exactly the situation that needs re-arming.
func churnScenario(p Params) churnSetup {
	s := churnSetup{side: p.size(8, 24, 100), rounds: p.rounds(600, 2000)}
	s.burst1 = s.rounds / 4
	if s.burst1 < 1 {
		s.burst1 = 1
	}
	s.burst2 = s.rounds / 2
	if s.burst2 <= s.burst1 {
		s.burst2 = s.burst1 + 1
	}
	return s
}

// runChurnVariants executes every variant of the churn scenario on the
// cell pool and returns the measured outcomes in variant order.
func runChurnVariants(p Params) (churnSetup, []churnOutcome, error) {
	p = p.withDefaults()
	setup := churnScenario(p)
	sys, err := p.topology(torus(setup.side), "")
	if err != nil {
		return setup, nil, err
	}
	n := sys.Graph.NumNodes()
	setup.n = n
	burst := int64(50 * n)
	churnBatch := int64(n / 10)
	setup.wlSpec = fmt.Sprintf("burst:%d:%d:0+burst:%d:%d:0+churn:5:%d:%d",
		setup.burst1, burst, setup.burst2, burst, churnBatch, churnBatch)

	x0 := make([]int64, n)
	for i := range x0 {
		x0[i] = 1000
	}
	variants := churnVariants()
	results := make([]churnOutcome, len(variants))
	err = p.runCells(len(variants), func(i int) error {
		v := variants[i]
		proc, err := p.discrete(sys, v.kind, x0)
		if err != nil {
			return err
		}
		// Every variant gets its own mutator and policy instance (scratch
		// RNG, switch state) built from the same specs and seed, so all see
		// identical dynamics and no state leaks between cells.
		wl, err := workload.FromSpec(setup.wlSpec, n, p.Seed)
		if err != nil {
			return err
		}
		policy, err := core.PolicyFromSpec(v.policy)
		if err != nil {
			return err
		}
		runner := &sim.Runner{
			Proc:     proc,
			Workload: wl,
			Every:    1,
			Adaptive: policy,
			Metrics:  []sim.Metric{sim.Discrepancy(), sim.PeakDiscrepancy()},
		}
		res, err := runner.Run(setup.rounds)
		if err != nil {
			return err
		}
		disc, err := res.Series.Column("discrepancy")
		if err != nil {
			return err
		}
		o := churnOutcome{name: v.name, series: res.Series, switches: res.Switches}
		o.pre = disc[setup.burst1-1] // Every=1: row index == round
		o.final = disc[len(disc)-1]
		o.peak, err = res.Series.Last("peak_discrepancy")
		if err != nil {
			return err
		}
		o.recover1, err = sim.RoundsToRecover(res.Series, "discrepancy", setup.burst1, o.pre+8)
		if err != nil {
			return err
		}
		pre2 := disc[setup.burst2-1]
		o.recover2, err = sim.RoundsToRecover(res.Series, "discrepancy", setup.burst2, pre2+8)
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

// switchHistory renders a switch-event list compactly for the report.
func switchHistory(events []core.SwitchEvent) string {
	if len(events) == 0 {
		return "-"
	}
	parts := make([]string, len(events))
	for i, ev := range events {
		parts[i] = fmt.Sprintf("%d>%s", ev.Round, ev.To)
	}
	return strings.Join(parts, ",")
}

// runChurn starts every scheme from a balanced torus, runs light background
// churn (batch arrivals/departures at random nodes), injects hotspot bursts
// a quarter and half of the way in, and measures how each scheme recovers:
// the peak discrepancy reached and the rounds until the discrepancy returns
// to its pre-burst level (+8 tokens of slack). The second burst lands after
// the plateau policies have switched to FOS, separating the one-shot hybrid
// (recovers at FOS pace) from the re-arming adaptive hybrid (restarts SOS
// and recovers at SOS pace).
func runChurn(w io.Writer, p Params) error {
	p = p.withDefaults()
	e, _ := ByID("churn")
	setup, results, err := runChurnVariants(p)
	if err != nil {
		return err
	}
	if err := header(w, e, fmt.Sprintf(
		"torus %dx%d, balanced start at 1000/node; workload %s (each burst = 50 tokens/node at v0)",
		setup.side, setup.side, setup.wlSpec)); err != nil {
		return err
	}

	fmt.Fprintf(w, "\n%-9s %-38s %10s %10s %14s %14s %10s\n",
		"scheme", "switches", "pre-burst", "peak", "recover1", "recover2", "final")
	for _, o := range results {
		rec := func(r int) string {
			if r < 0 {
				return "never"
			}
			return fmt.Sprintf("%d rounds", r)
		}
		fmt.Fprintf(w, "%-9s %-38s %10.0f %10.0f %14s %14s %10.0f\n",
			o.name, switchHistory(o.switches), o.pre, o.peak, rec(o.recover1), rec(o.recover2), o.final)
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
	if err := writeSeries(w, p, "churn_recovery", m); err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, "\nshape check: all schemes absorb the same bursts (identical injected load), but the recovery curves differ — SOS drains a hotspot in markedly fewer rounds than FOS; the one-shot hybrid switches to FOS on the balanced start and recovers both bursts at FOS pace, while the adaptive hysteresis band re-arms SOS on each burst (the >SOS entries above) and recovers at ~SOS pace before switching back")
	return err
}
