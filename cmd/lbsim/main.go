// Command lbsim runs diffusion load balancing simulations and reproduces
// the paper's experiments.
//
// Usage:
//
//	lbsim -list
//	    List every registered experiment (one per paper table/figure).
//
//	lbsim -experiment fig1 [-full] [-seed N] [-out DIR] [-workers N]
//	    Reproduce one paper artifact. -full uses the paper's original
//	    sizes (slower); -out dumps CSV series and PNG/PGM frames.
//	    -workers bounds how many scenario cells run concurrently
//	    (0 = one per CPU).
//
//	lbsim -experiment all [-full] ...
//	    Run every experiment in sequence.
//
//	lbsim -sweep -graph torus2d:64x64,hypercube:10 -scheme sos,fos \
//	      -rounder randomized -replicates 8 -rounds 500 [-beta 0,1.8] \
//	      [-speeds twoclass:0.25:4] [-workers N] [-format table|csv|json]
//	    Expand the cross product of the comma-separated axes into
//	    independent cells, run them on the bounded worker pool, and print
//	    replicate-aggregated mean/std/min/max series. Output is bitwise
//	    identical for every -workers value.
//
//	lbsim -graph torus2d:100x100 -scheme sos -rounder randomized \
//	      -rounds 1000 [-avg 1000] [-policy adaptive:16:64:100] [-csv out.csv] \
//	      [-workload burst:100:500000+poisson:0.5] \
//	      [-speeds twoclass:0.25:4 -env throttle:at=200,frac=0.125,factor=0.25] \
//	      [-scenario drain:at=200,frac=0.125,ramp=8 -betareopt 0.05]
//	    Free-form run: any graph, scheme and rounder, with the paper's
//	    three metrics recorded. -workload injects dynamic load between
//	    rounds (hotspot bursts, Poisson arrivals, churn, an adversarial
//	    most-loaded-region feeder) and adds the discrepancy, peak
//	    discrepancy and total load recovery metrics. -env makes the
//	    processor speeds time-varying (throttle/boost events, drain/
//	    restore ramps, random-walk jitter): the diffusion operator is
//	    reweighted in place at every speed change and the ideal-drift and
//	    speed-sum metrics are added. -scenario drives a coupled timeline
//	    that moves speeds AND loads in one unit (migration-on-drain,
//	    correlated throttle+burst, jittered cascades); -betareopt T re-runs
//	    the power iteration and re-optimizes the SOS beta in place whenever
//	    the total speed drifts by more than the relative threshold T.
//	    -policy attaches a hybrid switch policy (at:N | local:T |
//	    stall:W:F | adaptive:LO:HI[:CD] | never); the adaptive hysteresis
//	    band re-arms SOS when a post-switch burst — or a speed event —
//	    re-inflates the speed-normalized local difference. -workload,
//	    -env, -scenario and -policy are also sweep axes in -sweep mode;
//	    their lists are ';'-separated uniformly, because env and scenario
//	    specs contain commas. -sweep -stream csv|json streams each
//	    aggregated group as it completes (byte-identical to -format
//	    csv/json, bounded memory).
//	    -runtime actor:K[,stale=S] runs the simulation on the message-
//	    passing actor runtime: K shard actors exchange boundary flux over
//	    channels; stale=0 (the default) is the barrier mode, bit-identical
//	    to the shared-memory engine, while stale=S bounds how many rounds
//	    old a neighbour's boundary state may be. -runtime is also a sweep
//	    axis (';'-separated, since actor specs contain commas).
//	    A free-form run is one sim.RunSpec in which every part draws
//	    from -seed and λ comes from the default power iteration.
//	    -stepworkers N parallelizes each step (-workers N does when
//	    -stepworkers is unset); the output is the same for every value.
//	    Every spec is checked before λ is computed, so a typo fails at
//	    once even on a graph whose power iteration takes minutes.
//	    -telemetry ADDR serves live observability over HTTP while a
//	    free-form or -sweep run executes: Prometheus text on /metrics,
//	    a JSON metrics+trace snapshot on /snapshot and net/http/pprof
//	    under /debug/pprof/. Telemetry is write-only from the
//	    simulation's view — trajectories and stdout are bit-identical
//	    with the flag on or off.
//
//	lbsim -graph hypercube:16 -spectrum
//	    Print n, |E|, d, λ and β_opt for a graph.
//
// Graph syntax: torus2d:WxH | torus:S1xS2x... | hypercube:DIM |
// regular:N:D | rgg:N | cycle:N | path:N | complete:N | grid:WxH | star:N.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strconv"
	"strings"

	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/experiments"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/sweep"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// Spec grammars, one line each, appended to parser errors so a typo shows
// the valid syntax (and printed in README's grammar table).
const (
	speedsGrammar   = "speeds grammar:   twoclass:FRAC:SPEED | range:MAX | powerlaw:ALPHA:MAX | single:IDX:SPEED"
	workloadGrammar = "workload grammar: burst:ROUND:AMOUNT[:NODE] | hotspot:PERIOD:AMOUNT[:NODE] | poisson:RATE[:UNTIL] | churn:PERIOD:ARRIVE:DEPART[:UNTIL] | adversary:AMOUNT[:TOP], joined with '+'"
	policyGrammar   = "policy grammar:   at:ROUND | local:THRESHOLD | stall:WINDOW:FACTOR | adaptive:LO:HI[:COOLDOWN] | never"
	envGrammar      = "env grammar:      throttle:at=R,frac=F,factor=X[,until=U][,sel=fast|slow|random] | throttle:every=P,dur=D,frac=F,factor=X | boost:<throttle keys> | drain:at=R,frac=F[,ramp=T][,restore=R2[,rramp=T2]] | jitter:sigma=S[,cap=C][,frac=F], joined with '+'"
	scenarioGrammar = "scenario grammar: drain:at=R,frac=F[,ramp=W][,restore=R2[,rramp=W2]][,sel=fast|slow|random] | correlated:at=R,frac=F,factor=X,load=L[,until=U] | cascade:at=R,waves=K,gap=G,frac=F,factor=X[,load=L][,dur=D][,jitter=J], joined with '+'"
	runtimeGrammar  = "runtime grammar:  actor:K[,stale=S] (K >= 1 shard actors; S >= 0 staleness bound, 0 = barrier)"
)

// withGrammar appends the relevant spec grammar to spec-parse errors, so
// `lbsim -workload tsunami:9` teaches the valid syntax instead of only
// naming the failing token.
func withGrammar(err error) error {
	if err == nil {
		return nil
	}
	switch {
	case errors.Is(err, hetero.ErrBadSpec):
		return fmt.Errorf("%w\n%s", err, speedsGrammar)
	case errors.Is(err, workload.ErrBadSpec):
		return fmt.Errorf("%w\n%s", err, workloadGrammar)
	case errors.Is(err, core.ErrBadPolicySpec):
		return fmt.Errorf("%w\n%s", err, policyGrammar)
	case errors.Is(err, envdyn.ErrBadSpec):
		return fmt.Errorf("%w\n%s", err, envGrammar)
	case errors.Is(err, scenario.ErrBadSpec):
		return fmt.Errorf("%w\n%s", err, scenarioGrammar)
	case errors.Is(err, actor.ErrBadSpec):
		return fmt.Errorf("%w\n%s", err, runtimeGrammar)
	}
	return err
}

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "lbsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("lbsim", flag.ContinueOnError)
	var (
		list         = fs.Bool("list", false, "list available experiments")
		experiment   = fs.String("experiment", "", "experiment id to run (or 'all')")
		full         = fs.Bool("full", false, "use the paper's original sizes")
		seed         = fs.Uint64("seed", 1, "master seed")
		workers      = fs.Int("workers", 0, "concurrent scenario cells in -experiment and -sweep modes (0 = one per CPU); per-step workers in free-form mode unless -stepworkers is set")
		stepWorkers  = fs.Int("stepworkers", 0, "worker goroutines per simulation step (0 = sequential)")
		outDir       = fs.String("out", "", "directory for CSV/PNG artifacts")
		rounds       = fs.Int("rounds", 1000, "rounds for free-form/sweep runs (also overrides experiment rounds when set with -experiment)")
		sweepMode    = fs.Bool("sweep", false, "run the cross product of -graph/-scheme/-rounder/-beta/-speeds axes and aggregate replicates")
		graphSpec    = fs.String("graph", "", "graph spec, e.g. torus2d:100x100 (comma-separated list in -sweep mode)")
		scheme       = fs.String("scheme", "sos", "fos | sos (comma-separated list in -sweep mode)")
		rounder      = fs.String("rounder", "randomized", "randomized | floor | nearest | bernoulli | continuous | cumulative (comma-separated list in -sweep mode)")
		runtimeSpec  = fs.String("runtime", "", "execution runtime: actor:K[,stale=S] = message-passing runtime with K shard actors and staleness bound S (empty = shared-memory engine; ';'-separated list in -sweep mode, since actor specs contain commas)")
		betas        = fs.String("beta", "", "sweep mode: comma-separated SOS beta overrides (0 = beta_opt)")
		replicates   = fs.Int("replicates", 1, "sweep mode: independently seeded runs per cell")
		format       = fs.String("format", "table", "sweep mode output: table | csv | json")
		avg          = fs.Int64("avg", 1000, "average initial load (all placed on node 0)")
		speedsSpec   = fs.String("speeds", "", "processor speeds: twoclass:FRAC:SPEED | range:MAX | powerlaw:ALPHA:MAX | single:IDX:SPEED (empty = homogeneous; comma-separated list in -sweep mode)")
		workloadSpec = fs.String("workload", "", "dynamic workload: burst:ROUND:AMOUNT[:NODE] | hotspot:PERIOD:AMOUNT[:NODE] | poisson:RATE[:UNTIL] | churn:PERIOD:ARRIVE:DEPART[:UNTIL] | adversary:AMOUNT[:TOP], joined with '+' (empty = static; ';'-separated list in -sweep mode)")
		envSpec      = fs.String("env", "", "environment dynamics (time-varying speeds): throttle:at=R,frac=F,factor=X | boost:... | drain:at=R,frac=F[,ramp=T][,restore=R2] | jitter:sigma=S, joined with '+' (empty = fixed speeds; ';'-separated list in -sweep mode, since env specs contain commas)")
		scenarioSpec = fs.String("scenario", "", "coupled scenario (speed + load on one timeline): drain:at=R,frac=F[,ramp=W][,restore=R2] | correlated:at=R,frac=F,factor=X,load=L | cascade:at=R,waves=K,gap=G,frac=F,factor=X, joined with '+' (empty = none; ';'-separated list in -sweep mode)")
		betaReopt    = fs.Float64("betareopt", 0, "re-optimize the SOS beta whenever the total speed drifts by this relative threshold (0 = off; free-form mode, needs -env or -scenario)")
		policySpec   = fs.String("policy", "", "hybrid switch policy: at:ROUND | local:THRESHOLD | stall:WINDOW:FACTOR | adaptive:LO:HI[:COOLDOWN] | never (empty = never; ';'-separated list in -sweep mode)")
		stream       = fs.String("stream", "", "sweep mode: stream each aggregated group as it completes instead of holding the whole grid in memory (csv | json; byte-identical to the -format csv/json output)")
		every        = fs.Int("every", 0, "recording cadence (0 = auto)")
		csvPath      = fs.String("csv", "", "write the recorded series to this CSV file")
		spectrum     = fs.Bool("spectrum", false, "print spectral data for -graph and exit")
		tableRows    = fs.Int("rows", 21, "max rows in printed tables")
		telAddr      = fs.String("telemetry", "", "serve live telemetry on this address during free-form and -sweep runs: Prometheus /metrics, JSON /snapshot, /debug/pprof (e.g. :9090 or 127.0.0.1:0); trajectories and stdout are bit-identical with or without it")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	// The telemetry server and its registry/trace are strictly write-only
	// from the simulation's view: probes record into them and the HTTP
	// handlers read them, so every run stays bit-identical with the flag on
	// or off (the differential determinism test pins this). The banner goes
	// to stderr so stdout stays byte-comparable.
	var telReg *telemetry.Registry
	var telTr *telemetry.Trace
	if *telAddr != "" {
		telReg = telemetry.NewRegistry()
		telTr = telemetry.NewTrace(4096)
		srv, err := telemetry.Serve(*telAddr, telReg, telTr)
		if err != nil {
			return err
		}
		defer srv.Close()
		fmt.Fprintln(os.Stderr, "lbsim: telemetry on http://"+srv.Addr())
	}

	switch {
	case *list:
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %-14s %s\n", e.ID, e.Artifact, e.Title)
		}
		return nil

	case *experiment != "":
		p := experiments.Params{
			Full:        *full,
			Seed:        *seed,
			Workers:     *stepWorkers,
			CellWorkers: *workers,
			OutDir:      *outDir,
			TableRows:   *tableRows,
		}
		if fs.Lookup("rounds") != nil && flagWasSet(fs, "rounds") {
			p.RoundsOverride = *rounds
		}
		if *experiment == "all" {
			for _, e := range experiments.All() {
				if err := e.Run(os.Stdout, p); err != nil {
					return fmt.Errorf("experiment %s: %w", e.ID, err)
				}
				fmt.Println()
			}
			return nil
		}
		e, ok := experiments.ByID(*experiment)
		if !ok {
			return fmt.Errorf("unknown experiment %q (use -list)", *experiment)
		}
		return e.Run(os.Stdout, p)

	case *sweepMode:
		betaVals, err := parseFloats(*betas)
		if err != nil {
			return err
		}
		spec := sweep.Spec{
			Graphs:   splitList(*graphSpec),
			Schemes:  splitList(*scheme),
			Rounders: splitList(*rounder),
			Runtimes: splitAxisList(*runtimeSpec),
			Speeds:   splitList(*speedsSpec),
			// Workload, environment, scenario and policy axis lists split on
			// ';' uniformly: env and scenario specs always contain commas,
			// and a single splitting rule beats per-axis surprises.
			Workloads:    splitAxisList(*workloadSpec),
			Environments: splitAxisList(*envSpec),
			Scenarios:    splitAxisList(*scenarioSpec),
			Policies:     splitAxisList(*policySpec),
			Betas:        betaVals,
			Replicates:   *replicates,
			Rounds:       *rounds,
			Every:        *every,
			Avg:          *avg,
			BaseSeed:     *seed,
			StepWorkers:  *stepWorkers,
		}
		if len(spec.Graphs) == 0 {
			return fmt.Errorf("-sweep needs at least one -graph spec")
		}
		// Silently running every cell with a stale β would produce exactly
		// the wrong numbers for the comparison the flag exists to make.
		if *betaReopt != 0 {
			return fmt.Errorf("-betareopt applies to free-form runs only (the sweep grid has no re-opt axis)")
		}
		// Ctrl-C cancels the sweep: in-flight cells finish, queued cells
		// never start.
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
		defer stop()
		sweepOpts := sweep.Options{Workers: *workers}
		if telReg != nil {
			sweepOpts.Telemetry = telemetry.NewSweepProbe(telReg, telTr)
		}
		if *stream != "" {
			if flagWasSet(fs, "format") && *format != *stream {
				return fmt.Errorf("-stream %s conflicts with -format %s (streaming fixes the format)", *stream, *format)
			}
			switch *stream {
			case "csv":
				return withGrammar(sweep.StreamCSV(ctx, spec, sweepOpts, os.Stdout))
			case "json":
				return withGrammar(sweep.StreamJSON(ctx, spec, sweepOpts, os.Stdout))
			default:
				return fmt.Errorf("unknown -stream %q (csv|json)", *stream)
			}
		}
		res, err := sweep.Run(ctx, spec, sweepOpts)
		if err != nil {
			return withGrammar(err)
		}
		switch *format {
		case "json":
			return res.WriteJSON(os.Stdout)
		case "csv":
			return res.WriteCSV(os.Stdout)
		case "table":
			fmt.Printf("sweep: %d cells (%d groups x %d replicates), %d rounds\n",
				spec.NumCells(), spec.NumCells()/max(1, *replicates), *replicates, *rounds)
			return res.WriteTable(os.Stdout, *tableRows)
		default:
			return fmt.Errorf("unknown -format %q (table|csv|json)", *format)
		}

	case *graphSpec != "":
		// A free-form run is a single cell, so -workers (cell-level
		// concurrency elsewhere) falls back to meaning per-step
		// parallelism here unless -stepworkers says otherwise.
		sw := *stepWorkers
		if sw == 0 && !flagWasSet(fs, "stepworkers") {
			sw = *workers
		}
		// Every part of a free-form run draws from -seed, and λ comes from
		// the default power iteration, as diffusionlb.NewSystem computes it.
		spec := sim.RunSpec{
			Graph: *graphSpec, GraphSeed: *seed, Speeds: *speedsSpec, SpeedsSeed: *seed,
			StepWorkers: sw, Scheme: *scheme, Rounder: *rounder, Runtime: *runtimeSpec, Seed: *seed,
			Avg: *avg, Workload: *workloadSpec, WorkloadSeed: *seed, Env: *envSpec, EnvSeed: *seed,
			Scenario: *scenarioSpec, ScenarioSeed: *seed, Policy: *policySpec,
			BetaReopt: *betaReopt, Rounds: *rounds, Every: *every,
		}
		// Check the specs before the power iteration, which takes minutes
		// on a large expander.
		if err := spec.Validate(); err != nil {
			return withGrammar(err)
		}
		sys, err := spec.System()
		if err != nil {
			return withGrammar(err)
		}
		g := sys.Graph
		header := fmt.Sprintf("%s: n=%d |E|=%d d=%d lambda=%.10f beta_opt=%.10f",
			g.Name(), g.NumNodes(), g.NumEdges(), g.MaxDegree(), sys.Lambda, sys.Beta)
		if sys.Speeds != nil {
			header += fmt.Sprintf(" s_max=%.3f", sys.Speeds.Max())
		}
		if *spectrum {
			fmt.Println(header)
			return nil
		}
		runner, err := spec.Build(sys)
		if err != nil {
			return withGrammar(err)
		}
		if telReg != nil {
			if rt, ok := runner.Proc.(*actor.Runtime); ok {
				rt.SetTelemetry(telemetry.NewActorProbe(telReg, telTr, rt.Actors(), false))
			}
			runner.Telemetry = telemetry.NewRunProbe(telReg, telTr)
		}
		return freeFormRun(runner, header, *rounds, *csvPath, *tableRows)

	default:
		fs.Usage()
		return fmt.Errorf("nothing to do: pass -list, -experiment, -sweep or -graph")
	}
}

// splitList splits a comma-separated axis list, trimming blanks; the empty
// string yields nil (axis default).
func splitList(s string) []string {
	return splitListOn(s, ",")
}

// splitAxisList is the shared list splitter for the workload, environment,
// scenario and policy axes: they split on ";" uniformly, because env and
// scenario specs (and compose(...) wrappers) contain commas — splitting
// those on "," would shred a single spec into garbage entries.
func splitAxisList(s string) []string {
	return splitListOn(s, ";")
}

// splitListOn is splitList with an explicit separator.
func splitListOn(s, sep string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, sep)
	out := make([]string, 0, len(parts))
	for _, p := range parts {
		out = append(out, strings.TrimSpace(p))
	}
	return out
}

// parseFloats parses a comma-separated float list ("" = nil).
func parseFloats(s string) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]float64, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.ParseFloat(strings.TrimSpace(p), 64)
		if err != nil {
			return nil, fmt.Errorf("bad -beta value %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}

// flagWasSet reports whether the named flag was explicitly provided.
func flagWasSet(fs *flag.FlagSet, name string) bool {
	set := false
	fs.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

// freeFormRun runs a free-form run and prints the topology header, its
// events and its series. Nothing is printed unless the run succeeds, so a
// failed run leaves no partial stdout.
func freeFormRun(runner *sim.Runner, header string, rounds int, csvPath string, tableRows int) error {
	res, err := runner.Run(rounds)
	if err != nil {
		return err
	}
	fmt.Println(header)
	for _, ev := range res.Switches {
		fmt.Printf("switched to %s at round %d\n", ev.To, ev.Round)
	}
	// Jittery environments change speeds every round; cap the printouts.
	const maxEventLines = 8
	for i, ev := range res.SpeedEvents {
		if i == maxEventLines {
			fmt.Printf("... %d more speed events\n", len(res.SpeedEvents)-maxEventLines)
			break
		}
		fmt.Printf("speeds changed at round %d (%d nodes, sum=%g)\n", ev.Round, ev.Nodes, ev.Sum)
	}
	for i, ev := range res.ScenarioEvents {
		if i == maxEventLines {
			fmt.Printf("... %d more scenario events\n", len(res.ScenarioEvents)-maxEventLines)
			break
		}
		fmt.Printf("scenario fired at round %d (%d nodes speed-changed, %d load moved, sum=%g)\n",
			ev.Round, ev.Nodes, ev.Moved, ev.Sum)
	}
	for _, ev := range res.BetaEvents {
		fmt.Printf("beta re-optimized at round %d (lambda=%.6f, beta=%.6f)\n", ev.Round, ev.Lambda, ev.Beta)
	}
	if res.StaleBetaRounds > 0 {
		fmt.Printf("rounds spent on stale beta: %d\n", res.StaleBetaRounds)
	}
	if err := res.Series.WriteTable(os.Stdout, tableRows); err != nil {
		return err
	}
	if csvPath != "" {
		f, err := os.Create(csvPath)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := res.Series.WriteCSV(f); err != nil {
			return err
		}
		fmt.Printf("series written to %s\n", csvPath)
	}
	return nil
}
