// Command perfbench is diffusionlb's end-to-end benchmark. Each
// invocation runs one workload — a closed batch job taken from spec to a
// finished sim.Runner run — as many times as fit in the measuring window,
// checks every job's outputs, and prints its metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {"run_s": {"value": 4.9, "unit": "s"}, ...}}
//
// With -trace 0 the metrics are the end-to-end ones, measured with no
// tracing (the clock is read once per round, through Runner.OnRound). With
// -trace 1 untraced and traced jobs alternate; the traced jobs time every
// call across a layer seam and the metrics are the per-layer ones. See
// README.md for the workloads, the metrics and what each layer metric
// should move.
//
// Usage (from the repository root, after building with run.sh):
//
//	perfbench -workload torus-static -seed 1 -seconds 20 -trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime/debug"
	"time"

	"diffusionlb/internal/sim"
)

const (
	// minJobs untraced jobs run in every untraced invocation, so run_s is a
	// median of at least this many jobs.
	minJobs = 3
	// minRoundSamples keeps at least ten round samples beyond p90.
	minRoundSamples = 100
	// setupReps setups run on their own, and are dropped, before the jobs
	// of an untraced invocation; setup_s is the median over these and the
	// jobs' setups.
	setupReps = 6
	// maxStealShare is the most steal, as a share of an interval's wall
	// time, that a timed setup or run may see and still count. A stolen
	// interval is left out of the medians, and a stolen job is replaced
	// while the window allows.
	maxStealShare = 0.05
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: torus-static | regular-reopt | torus-dynamic | regular-actor")
	seed := fs.Uint64("seed", 1, "workload seed; every input is derived from it")
	seconds := fs.Float64("seconds", 20, "measuring window; jobs start while the next one is expected to end inside it")
	traceFlag := fs.Int("trace", 0, "0 = end-to-end metrics from untraced jobs; 1 = per-layer metrics from traced jobs")
	outDir := fs.String("out", filepath.Join(".bench_build", "traces"), "directory the traced run writes its spans to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *traceFlag)
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	traced := *traceFlag == 1
	out := bufio.NewWriter(stdout)
	defer out.Flush()

	mc := readMachine()
	fmt.Fprintf(out, "perfbench: workload=%s seed=%d seconds=%g trace=%d\n", w.name, *seed, *seconds, *traceFlag)
	fmt.Fprintf(out, "machine: nproc=%d GOMAXPROCS=%d go=%s cpu=%q llc=%.1fMiB\n",
		mc.nproc, mc.gomaxprocs, mc.goVersion, mc.cpuModel, float64(mc.llcBytes)/(1<<20))
	fmt.Fprintf(out, "why: %s\n", w.why)

	jobs, setups := runJobs(w, *seed, time.Duration(*seconds*float64(time.Second)), traced)
	failed := checkJobs(jobs)
	ref := jobs[0]
	if ref.res != nil {
		fmt.Fprintf(out, "input: graph=%s nodes=%d arcs=%d speeds=%q scheme=%s engine=%s rounds/job=%d every=%d\n",
			w.graph, ref.nodes, ref.arcs, w.speeds, w.kind, engineName(w), w.rounds, w.every)
		ws := float64(ref.workingB)
		fmt.Fprintf(out, "working set (computed: graph+operator+engine arrays): %.1f MiB = %.2fx LLC; a bandwidth claim needs >= 4x\n",
			ws/(1<<20), ws/float64(max(mc.llcBytes, 1)))
	}
	for i, t := range setups {
		fmt.Fprintf(out, "setup %d: %s\n", i+1, t)
	}
	for i, jr := range jobs {
		status := "ok"
		if jr.err != nil {
			status = "FAILED: " + jr.err.Error()
		}
		kind := "untraced"
		if jr.traced {
			kind = "traced"
		}
		fmt.Fprintf(out, "job %d %s: setup %s, run %s, rounds %d, peak RSS so far %.1f MiB, digest %016x, %s\n",
			i+1, kind, jr.setup, jr.run, len(jr.roundNs), float64(jr.peakRSS)/(1<<20), jr.digest, status)
	}

	e2e := endToEndMetrics(w, jobs, setups, out)
	fmt.Fprintf(out, "failed_share = %g ratio (%d failed of %d attempted)\n",
		float64(failed)/float64(len(jobs)), failed, len(jobs))
	report := e2e
	defs := endToEnd
	if traced {
		report = layerReport(jobs)
		defs = perLayer
		for _, d := range perLayer {
			fmt.Fprintf(out, "layer %s = %.6g %s\n", d.name, report[d.name], d.unit)
		}
		path := filepath.Join(*outDir, fmt.Sprintf("%s-seed%d.trace.json", w.name, *seed))
		if err := writeSpans(path, jobs); err != nil {
			return err
		}
		fmt.Fprintf(out, "spans written to %s\n", path)
	}

	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	result := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: failed == 0, Attempted: len(jobs), Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		result.Metrics[d.name] = value{report[d.name], d.unit}
	}
	line, err := json.Marshal(result)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", line)
	return nil
}

func engineName(w *workloadDef) string {
	if w.actors > 0 {
		return fmt.Sprintf("actor:%d (barrier)", w.actors)
	}
	return "core.Discrete (one step worker)"
}

// runJobs runs jobs until the window is spent: a new job starts only if
// the previous one's wall time still fits. Untraced invocations first run
// setupReps setup-only samples, then at least minJobs jobs and
// minRoundSamples rounds; a stolen job is replaced while a quarter more
// than the window allows. Traced invocations alternate untraced and traced
// jobs, at least one of each. The heap is returned to the OS after every
// setup and job, so peak RSS is one job's peak and every setup starts from
// a small heap, as in a fresh process.
func runJobs(w *workloadDef, seed uint64, window time.Duration, traced bool) ([]*jobResult, []timing) {
	begin := time.Now()
	var setups []timing
	for i := 0; i < setupReps && !traced; i++ {
		t, err := w.timeSetup(seed)
		debug.FreeOSMemory()
		if err != nil {
			break // the first job reports the error
		}
		setups = append(setups, t)
	}
	var jobs []*jobResult
	untraced, tracedN, rounds := 0, 0, 0
	clean, cleanRounds := 0, 0
	for i := 0; ; i++ {
		t0 := time.Now()
		jr := w.runJob(seed, traced && i%2 == 1)
		if jr.traced && jr.err == nil {
			jr.layers = layerMetrics(w, jr)
		}
		jr.inst = nil // release the job's arrays before the next one sets up
		jobs = append(jobs, jr)
		if jr.traced {
			tracedN++
		} else {
			untraced++
			rounds += len(jr.roundNs)
			if !jr.run.stolen() {
				clean++
				cleanRounds += len(jr.roundNs)
			}
		}
		jr.peakRSS = peakRSSBytes()
		debug.FreeOSMemory()
		last := time.Since(t0)
		if jr.res == nil {
			return jobs, setups // a job that cannot run will not run next time either
		}
		if traced && (untraced < 1 || tracedN < 1) || !traced && (untraced < minJobs || rounds < minRoundSamples) {
			continue
		}
		limit := window
		if !traced && (clean < minJobs || cleanRounds < minRoundSamples) {
			limit = window * 5 / 4
		}
		if time.Since(begin)+last > limit {
			return jobs, setups
		}
	}
}

// checkJobs applies the checks that make a job fail and returns the count:
// an error from setup or Runner.Run, a conservation violation, a λ/β that
// differs from NewSystem's, or a digest that differs from the first
// untraced job's (every job of an invocation has the same inputs, so a
// traced job must reproduce its untraced twin bit for bit).
func checkJobs(jobs []*jobResult) int {
	failed := 0
	ref := jobs[0]
	for _, jr := range jobs {
		if jr.err == nil && jr.res != nil && ref.res != nil && jr.digest != ref.digest {
			jr.err = errDigest
		}
		if jr.err != nil {
			failed++
		}
	}
	return failed
}

// endToEndMetrics computes the end-to-end metrics from the untraced jobs
// and the setup-only samples and prints them, their process-CPU-time twins
// and the trajectory metrics that are deterministic for a seed. The times
// are wall times of intervals the hypervisor did not steal from (see
// unstolen).
func endToEndMetrics(w *workloadDef, jobs []*jobResult, setups []timing, out *bufio.Writer) map[string]float64 {
	var ran []*jobResult
	var runT []timing
	setupT := append([]timing(nil), setups...)
	for _, jr := range jobs {
		if !jr.traced && jr.res != nil {
			ran = append(ran, jr)
			runT = append(runT, jr.run)
			setupT = append(setupT, jr.setup)
		}
	}
	var setup, setupCPU, runs, runsCPU, rounds, roundsCPU []float64
	for _, i := range unstolen(setupT, setupReps) {
		setup = append(setup, setupT[i].wall.Seconds())
		setupCPU = append(setupCPU, secs(setupT[i].cpu))
	}
	keep := unstolen(runT, minJobs)
	for _, i := range keep {
		jr := ran[i]
		runs = append(runs, jr.run.wall.Seconds())
		runsCPU = append(runsCPU, secs(jr.run.cpu))
		for k := range jr.roundNs {
			rounds = append(rounds, float64(jr.roundNs[k])/1e6)
			roundsCPU = append(roundsCPU, float64(jr.roundCPUNs[k])/1e6)
		}
	}
	p90, cpuP90 := quantile(rounds, 0.9), quantile(roundsCPU, 0.9)
	m := map[string]float64{
		"setup_s":      median(setup),
		"run_s":        median(runs),
		"round_ms_p50": median(rounds),
		"round_ms_p90": p90,
		"peak_rss_mb":  float64(peakRSSBytes()) / (1 << 20),
	}
	fmt.Fprintf(out, "steal filter: %d of %d setups and %d of %d runs kept (left out: steal above %g of the interval's wall time)\n",
		len(setup), len(setupT), len(keep), len(runT), maxStealShare)
	fmt.Fprintf(out, "setup_s = %.6g s (wall time, median of %d setups)\n", m["setup_s"], len(setup))
	fmt.Fprintf(out, "run_s = %.6g s (wall time, median of %d Runner.Run calls)\n", m["run_s"], len(runs))
	fmt.Fprintf(out, "round_ms_p50 = %.6g ms (wall time, %d rounds)\n", m["round_ms_p50"], len(rounds))
	fmt.Fprintf(out, "round_ms_p90 = %.6g ms (wall time, %d rounds, %d beyond p90)\n", p90, len(rounds), beyond(rounds, p90))
	fmt.Fprintf(out, "peak_rss_mb = %.6g MiB (peak of the process)\n", m["peak_rss_mb"])
	fmt.Fprintf(out, "setup_cpu_s = %.6g s (process CPU time, same setups)\n", median(setupCPU))
	fmt.Fprintf(out, "run_cpu_s = %.6g s (process CPU time, same runs)\n", median(runsCPU))
	fmt.Fprintf(out, "round_cpu_ms_p50 = %.6g ms (process CPU time, same rounds)\n", median(roundsCPU))
	fmt.Fprintf(out, "round_cpu_ms_p90 = %.6g ms (process CPU time, same rounds, %d beyond p90)\n",
		cpuP90, beyond(roundsCPU, cpuP90))
	if ref := jobs[0]; ref.res != nil {
		fmt.Fprintf(out, "final_discrepancy = %g tokens (deterministic for the seed)\n", ref.finalDisc)
		if w.balanceTarget > 0 {
			r, err := sim.RoundsToRecover(ref.res.Series, "max_minus_target", 0, w.balanceTarget)
			if err == nil {
				fmt.Fprintf(out, "rounds_to_balance = %d rounds (first recorded round with max_minus_target <= %g; -1 = never)\n",
					r, w.balanceTarget)
			}
		}
		if peak, err := ref.res.Series.Last("peak_discrepancy"); err == nil {
			fmt.Fprintf(out, "peak_discrepancy = %g tokens (deterministic for the seed)\n", peak)
		}
	}
	return m
}

// layerReport is the median of each per-layer metric over the traced jobs,
// plus trace.overhead_ratio: traced ÷ untraced median round wall time.
func layerReport(jobs []*jobResult) map[string]float64 {
	per := map[string][]float64{}
	var tracedRounds, plainRounds []float64
	for _, jr := range jobs {
		if jr.res == nil {
			continue
		}
		for _, ns := range jr.roundNs {
			if jr.traced {
				tracedRounds = append(tracedRounds, float64(ns))
			} else {
				plainRounds = append(plainRounds, float64(ns))
			}
		}
		for k, v := range jr.layers {
			per[k] = append(per[k], v)
		}
	}
	m := map[string]float64{}
	for k, vs := range per {
		m[k] = median(vs)
	}
	m["trace.overhead_ratio"] = median(tracedRounds) / median(plainRounds)
	return m
}

// writeSpans writes the traced jobs' spans as Chrome trace-event JSON
// (viewable in Perfetto), one process lane per job.
func writeSpans(path string, jobs []*jobResult) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	type args struct {
		ID      int    `json:"id"`
		Parent  int32  `json:"parent"`
		Round   int32  `json:"round"`
		Mallocs uint64 `json:"mallocs,omitempty"`
	}
	type event struct {
		Name string  `json:"name"`
		Ph   string  `json:"ph"`
		Ts   float64 `json:"ts"`
		Dur  float64 `json:"dur"`
		Pid  int     `json:"pid"`
		Tid  int     `json:"tid"`
		Args args    `json:"args"`
	}
	bw.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	first := true
	for j, jr := range jobs {
		for i, s := range jr.spans {
			b, err := json.Marshal(event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Pid: j + 1, Tid: 1, Args: args{ID: i, Parent: s.parent, Round: s.round, Mallocs: s.mallocs}})
			if err != nil {
				f.Close()
				return err
			}
			if !first {
				bw.WriteString(",\n")
			}
			first = false
			bw.Write(b)
		}
	}
	bw.WriteString("]}\n")
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
