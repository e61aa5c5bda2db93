package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/fnv"
	"math"
	"strconv"
	"strings"
	"time"

	"diffusionlb"
	"diffusionlb/internal/actor"
	"diffusionlb/internal/core"
	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
	"diffusionlb/internal/randx"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/sim"
	"diffusionlb/internal/spectral"
	"diffusionlb/internal/telemetry"
	"diffusionlb/internal/workload"
)

// Salts keep the input families derived from the workload seed disjoint.
const (
	saltGraph    = 0x7065_7266_6700_0001
	saltSpeeds   = 0x7065_7266_7300_0001
	saltLoad     = 0x7065_7266_6c00_0001
	saltRounding = 0x7065_7266_7200_0001
	saltEnv      = 0x7065_7266_6500_0001
	saltScenario = 0x7065_7266_6300_0001
	saltWorkload = 0x7065_7266_7700_0001
)

// lambdaSource says where a workload's β_opt comes from.
type lambdaSource int

const (
	// lambdaNone: FOS, which needs no β.
	lambdaNone lambdaSource = iota
	// lambdaTorus: the closed-form torus λ, the path sweeps and experiments
	// take.
	lambdaTorus
	// lambdaPower: power iteration with default options, as
	// diffusionlb.NewSystem (and so lbsim's free-form mode) computes it.
	lambdaPower
)

// initialLoad says how the starting load vector is drawn (avg tokens/node).
type initialLoad int

const (
	loadUniform  initialLoad = iota // metrics.UniformRandomLoad
	loadPoint                       // metrics.PointLoad on a seed-drawn node
	loadBalanced                    // every node holds avg tokens
)

// workloadDef is one batch job: a spec the benchmark composes through the
// same layers lbsim and sweep cells use (graph → hetero → spectral →
// core/actor → sim.Runner) and runs to completion.
type workloadDef struct {
	name, why string
	graph     string
	speeds    string // hetero spec, "" = homogeneous
	// instanceSeed, when non-zero, fixes the graph and speed seeds instead
	// of deriving them from the workload seed (see regular-reopt).
	instanceSeed uint64
	kind         core.Kind
	lambda       lambdaSource
	load         initialLoad
	avg          int64
	actors       int // > 0 runs actor:K in barrier mode instead of core.Discrete
	rounds       int
	every        int
	env          string
	scenario     string
	workload     string
	policy       string
	betaReopt    float64
	probe        bool // attach a live telemetry.RunProbe, as lbsim -telemetry does
	// balanceTarget, when > 0, is the max_minus_target level that
	// rounds_to_balance waits for.
	balanceTarget float64
}

// The four workloads. README.md gives the reason for each and the layer
// each one is expected to expose.
var workloads = []*workloadDef{
	{
		name:  "torus-static",
		why:   "single-threaded paper-scale kernel baseline: core Step is nearly the whole round",
		graph: "torus2d:1024x1024", kind: core.SOS, lambda: lambdaTorus,
		load: loadUniform, avg: 1000, rounds: 35, every: 10,
	},
	{
		name:  "regular-reopt",
		why:   "lbsim free-form run where power iteration (cold lambda + one per speed event) is most of the work",
		graph: "regular:4096:8", speeds: "twoclass:0.25:4", instanceSeed: 1,
		kind: core.SOS, lambda: lambdaPower, load: loadPoint, avg: 1000,
		rounds: 400, every: 4,
		env:       "throttle:at=100,frac=0.25,factor=0.25,until=250",
		betaReopt: 0.05, balanceTarget: 16,
	},
	{
		name:  "torus-dynamic",
		why:   "sweep-cell run with scenario, workload, policy and every-round metrics: Runner and observation work beside Step",
		graph: "torus2d:128x128", kind: core.SOS, lambda: lambdaTorus,
		load: loadBalanced, avg: 1000, rounds: 600, every: 1,
		scenario: "cascade:at=50,waves=6,gap=80,frac=0.05,factor=0.25,load=200000,dur=60",
		workload: "hotspot:10:50000+poisson:0.05",
		policy:   "adaptive:16:64:10",
		probe:    true,
	},
	{
		name:  "regular-actor",
		why:   "the only workload on the actor runtime: barrier actor:2 FOS on an expander with half its arcs cut",
		graph: "regular:262144:8", kind: core.FOS, lambda: lambdaNone,
		load: loadUniform, avg: 1000, actors: 2, rounds: 40, every: 10,
	},
}

func lookupWorkload(name string) (*workloadDef, error) {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names[i] = w.name
	}
	return nil, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

// layer is the engine layer the workload steps on.
func (w *workloadDef) layer() string {
	if w.actors > 0 {
		return "actor"
	}
	return "core"
}

// instance is one set-up job, ready to run.
type instance struct {
	g      *graph.Graph
	speeds *hetero.Speeds
	op     *spectral.Operator
	lambda float64
	beta   float64
	total0 int64 // Σ initial load
	proc   engine
	runner *sim.Runner
}

// seeds derives every input seed of a job from the workload seed.
type seeds struct {
	graph, speeds, load, rounding, env, scenario, workload uint64
}

func (w *workloadDef) seeds(seed uint64) seeds {
	inst := seed
	if w.instanceSeed != 0 {
		inst = w.instanceSeed
	}
	return seeds{
		graph:    randx.Mix(inst, saltGraph),
		speeds:   randx.Mix(inst, saltSpeeds),
		load:     randx.Mix(seed, saltLoad),
		rounding: randx.Mix(seed, saltRounding),
		env:      randx.Mix(seed, saltEnv),
		scenario: randx.Mix(seed, saltScenario),
		workload: randx.Mix(seed, saltWorkload),
	}
}

// setup builds a job from spec to ready engine and Runner. With tr
// non-nil every call into a layer is timed as a span; a nil tr times
// nothing (the untraced run times setup as a whole).
func (w *workloadDef) setup(seed uint64, tr *tracer) (*instance, error) {
	call := tr.call
	s := w.seeds(seed)
	in := &instance{}
	var err error
	call("graph.FromSpec", func() { in.g, err = graph.FromSpec(w.graph, s.graph) })
	if err != nil {
		return nil, err
	}
	n := in.g.NumNodes()
	call("hetero.SpeedsFromSpec", func() { in.speeds, err = hetero.SpeedsFromSpec(w.speeds, n, s.speeds) })
	if err != nil {
		return nil, err
	}
	call("spectral.NewOperator", func() { in.op, err = spectral.NewOperator(in.g, in.speeds, nil) })
	if err != nil {
		return nil, err
	}
	switch w.lambda {
	case lambdaTorus:
		var tw, th int
		if tw, th, err = torusDims(w.graph); err != nil {
			return nil, err
		}
		call("spectral.AnalyticTorus2DLambda", func() { in.lambda, err = spectral.AnalyticTorus2DLambda(tw, th) })
	case lambdaPower:
		call("spectral.SecondEigenvalue", func() { in.lambda, _, err = in.op.SecondEigenvalue(spectral.PowerOptions{}) })
	}
	if err != nil {
		return nil, err
	}
	if w.lambda != lambdaNone {
		call("spectral.BetaOpt", func() { in.beta, err = spectral.BetaOpt(in.lambda) })
		if err != nil {
			return nil, err
		}
	}
	var x0 []int64
	call("metrics.InitialLoad", func() { x0, err = w.initialLoad(n, s.load) })
	if err != nil {
		return nil, err
	}
	for _, v := range x0 {
		in.total0 += v
	}
	rounder := core.RandomizedRounder{}
	if w.actors > 0 {
		call("actor.New", func() {
			in.proc, err = actor.New(in.op, w.kind, in.beta, rounder, s.rounding, x0, actor.Options{Actors: w.actors})
		})
	} else {
		call("core.NewDiscrete", func() {
			in.proc, err = core.NewDiscrete(core.Config{Op: in.op, Kind: w.kind, Beta: in.beta, Workers: 1},
				rounder, s.rounding, x0)
		})
	}
	if err != nil {
		return nil, err
	}
	call("sim.NewRunner", func() { in.runner, err = w.newRunner(in, s, tr) })
	if err != nil {
		return nil, err
	}
	return in, nil
}

func (w *workloadDef) initialLoad(n int, seed uint64) ([]int64, error) {
	total := w.avg * int64(n)
	switch w.load {
	case loadPoint:
		return metrics.PointLoad(n, total, int(seed%uint64(n)))
	case loadBalanced:
		x := make([]int64, n)
		for i := range x {
			x[i] = w.avg
		}
		return x, nil
	default:
		return metrics.UniformRandomLoad(n, total, seed)
	}
}

// newRunner assembles the Runner the way lbsim's free-form mode and sweep
// cells do: the default metric trio, plus the hetero, dynamic and
// environment sets when speeds, a workload or dynamics are present. With
// tr non-nil the policy, the workload and every metric are wrapped.
func (w *workloadDef) newRunner(in *instance, s seeds, tr *tracer) (*sim.Runner, error) {
	n := in.g.NumNodes()
	wl, err := workload.FromSpec(w.workload, n, s.workload)
	if err != nil {
		return nil, err
	}
	env, err := envdyn.FromSpec(w.env, n, s.env)
	if err != nil {
		return nil, err
	}
	scn, err := scenario.FromSpec(w.scenario, n, s.scenario)
	if err != nil {
		return nil, err
	}
	policy, err := core.PolicyFromSpec(w.policy)
	if err != nil {
		return nil, err
	}
	ms := sim.DefaultMetrics()
	if !in.speeds.IsHomogeneous() {
		ms = append(ms, sim.HeteroMaxMinusTarget())
	}
	if wl != nil {
		ms = append(ms, sim.DynamicMetrics()...)
	}
	if env != nil {
		ms = append(ms, sim.EnvironmentMetrics()...)
	}
	if scn != nil {
		if wl == nil {
			ms = append(ms, sim.ScenarioMetrics()...)
		} else {
			ms = append(ms, sim.EnvironmentMetrics()...)
		}
	}
	r := &sim.Runner{Proc: in.proc, Every: w.every, Metrics: ms, Workload: wl, Adaptive: policy,
		Environment: env, Scenario: scn}
	if w.betaReopt > 0 {
		r.BetaReopt = &sim.BetaReopt{Threshold: w.betaReopt}
	}
	if w.probe {
		r.Telemetry = telemetry.NewRunProbe(telemetry.NewRegistry(), telemetry.NewTrace(4096))
	}
	if tr != nil {
		r.Proc = traceEngine(in.proc, tr, w.layer())
		r.Metrics = traceMetrics(ms, tr)
		if r.Workload != nil {
			r.Workload = tracedMutator{Mutator: r.Workload, tr: tr}
		}
		if r.Adaptive != nil {
			r.Adaptive = tracedPolicy{AdaptivePolicy: r.Adaptive, tr: tr}
		}
	}
	return r, nil
}

// torusDims parses "torus2d:WxH".
func torusDims(spec string) (w, h int, err error) {
	rest, ok := strings.CutPrefix(spec, "torus2d:")
	ws, hs, ok2 := strings.Cut(rest, "x")
	if !ok || !ok2 {
		return 0, 0, fmt.Errorf("not a torus2d:WxH spec: %q", spec)
	}
	if w, err = strconv.Atoi(ws); err == nil {
		h, err = strconv.Atoi(hs)
	}
	return w, h, err
}

// jobResult is what one job leaves behind.
type jobResult struct {
	traced     bool
	setup, run timing
	// roundNs are the per-round wall times, from Runner.OnRound;
	// roundCPUNs the per-round process CPU times (untraced jobs only).
	roundNs, roundCPUNs []int64
	res                 *sim.Result
	digest              uint64
	// err is why the job failed its checks (nil = passed).
	err       error
	finalDisc float64
	nodes     int
	arcs      int
	workingB  int64 // graph + operator + engine bytes (computed)
	peakRSS   int64 // process peak RSS when the job ended
	// inst is the job's set-up instance; runJobs drops it once the
	// job's metrics are taken, so jobs do not pile up in memory.
	inst *instance
	// Traced jobs only: the spans and the per-layer metrics from them.
	spans  []span
	layers map[string]float64
}

// timeSetup sets up a job and drops it, for the extra setup_s samples.
func (w *workloadDef) timeSetup(seed uint64) (timing, error) {
	var err error
	t := measure(func() { _, err = w.setup(seed, nil) })
	return t, err
}

// runJob sets up and runs one job, times it and checks its outputs.
func (w *workloadDef) runJob(seed uint64, traced bool) *jobResult {
	jr := &jobResult{traced: traced}
	var tr *tracer
	if traced {
		tr = newTracer(w.rounds*40 + 64)
	}
	var in *instance
	var err error
	jr.setup = measure(func() { tr.call("setup", func() { in, err = w.setup(seed, tr) }) })
	if err != nil {
		jr.err = fmt.Errorf("setup: %w", err)
		return jr
	}
	jr.nodes, jr.arcs = in.g.NumNodes(), in.g.NumArcs()
	jr.workingB = in.g.MemoryFootprint() + in.op.MemoryFootprint() + engineFootprint(in.proc)

	type mark struct{ wall, cpu int64 }
	marks := make([]mark, 0, w.rounds)
	var start time.Time
	if tr != nil {
		in.runner.OnRound = func(r int, _ core.Process) { tr.mark(r) }
		tr.startRun(w.rounds)
	} else {
		in.runner.OnRound = func(int, core.Process) { marks = append(marks, mark{int64(time.Since(start)), cpuNs()}) }
	}
	steal0, cpu0 := stealNs(), cpuNs()
	start = time.Now()
	res, err := in.runner.Run(w.rounds)
	wall := time.Since(start)
	cpu1 := cpuNs()
	jr.run = timing{wall: wall, cpu: cpu1 - cpu0, steal: stealNs() - steal0}
	jr.inst = in
	if tr != nil {
		tr.endRun()
		jr.spans = tr.spans
		for _, s := range tr.spans {
			if s.name == "sim.round" {
				jr.roundNs = append(jr.roundNs, s.dur())
			}
		}
	} else if len(marks) == w.rounds {
		marks[w.rounds-1] = mark{int64(wall), cpu1}
		prev := mark{0, cpu0}
		for _, m := range marks {
			jr.roundNs = append(jr.roundNs, m.wall-prev.wall)
			jr.roundCPUNs = append(jr.roundCPUNs, m.cpu-prev.cpu)
			prev = m
		}
	}
	if err != nil {
		jr.err = fmt.Errorf("Runner.Run: %w", err)
		return jr
	}
	jr.res = res
	loads := in.proc.Loads().Int
	jr.finalDisc = metrics.Discrepancy(loads)
	jr.digest = digest(res.Series, loads)
	jr.err = checkConservation(in)
	if jr.err == nil && traced && w.lambda == lambdaPower {
		jr.err = checkNewSystem(in)
	}
	return jr
}

// engineFootprint is the engine's own resident bytes.
func engineFootprint(p engine) int64 {
	if f, ok := p.(interface{ MemoryFootprint() int64 }); ok {
		return f.MemoryFootprint()
	}
	return 0
}

// checkConservation requires Σloads + in-flight = Σx₀ + injected − removed.
func checkConservation(in *instance) error {
	var sum int64
	for _, v := range in.proc.Loads().Int {
		sum += v
	}
	if ifr, ok := in.proc.(core.InFlightReporter); ok {
		sum += ifr.InFlightLoad()
	}
	added, removed := in.proc.Injected()
	if want := in.total0 + added - removed; sum != want {
		return fmt.Errorf("conservation: loads+in-flight %d, want %d (x0 %d + added %d - removed %d)",
			sum, want, in.total0, added, removed)
	}
	return nil
}

// checkNewSystem requires the composed λ and β to be bit-equal to what
// diffusionlb.NewSystem computes for the same graph and speeds.
func checkNewSystem(in *instance) error {
	sys, err := diffusionlb.NewSystem(in.g, in.speeds)
	if err != nil {
		return fmt.Errorf("NewSystem: %w", err)
	}
	if math.Float64bits(sys.Lambda()) != math.Float64bits(in.lambda) ||
		math.Float64bits(sys.Beta()) != math.Float64bits(in.beta) {
		return fmt.Errorf("lambda/beta %v/%v differ from NewSystem's %v/%v", in.lambda, in.beta, sys.Lambda(), sys.Beta())
	}
	return nil
}

// digest hashes the recorded series (column names, rounds, values as bits)
// and the final loads; a traced run must reproduce its untraced twin's.
func digest(s *sim.Series, loads []int64) uint64 {
	h := fnv.New64a()
	var b [8]byte
	word := func(v uint64) {
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for _, name := range s.Names() {
		h.Write([]byte(name))
		word(0)
	}
	for i := 0; i < s.Len(); i++ {
		word(uint64(s.Round(i)))
		for _, v := range s.Row(i) {
			word(math.Float64bits(v))
		}
	}
	for _, v := range loads {
		word(uint64(v))
	}
	return h.Sum64()
}

var errDigest = errors.New("digest differs from the first untraced job's")
