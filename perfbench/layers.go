package main

import (
	"strings"

	"diffusionlb/internal/core"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics the untraced run reports (BENCHMARK.json's
// end_to_end list).
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"run_s", "s"},
	{"round_ms_p50", "ms"},
	{"round_ms_p90", "ms"},
	{"peak_rss_mb", "MiB"},
}

// perLayer are the metrics the traced run reports (BENCHMARK.json's
// per_layer list). A layer a workload does not run reports 0.
var perLayer = []metricDef{
	{"graph.build_s", "s"},
	{"graph.bytes_per_node", "B/node"},
	{"spectral.operator_s", "s"},
	{"spectral.lambda_s", "s"},
	{"spectral.reopt_s", "s"},
	{"spectral.bytes_per_node", "B/node"},
	{"core.new_s", "s"},
	{"core.step_ms_p50", "ms"},
	{"core.step_ms_p90", "ms"},
	{"core.node_updates_per_s", "1/s"},
	{"core.allocs_per_round", "allocs/round"},
	{"core.tokens_moved_per_round", "tokens/round"},
	{"core.edge_messages_per_round", "msgs/round"},
	{"core.computed_bytes_per_round", "B/round"},
	{"core.computed_gb_per_s", "GB/s"},
	{"core.bytes_per_node", "B/node"},
	{"core.inject_ms", "ms/round"},
	{"core.policy_ms", "ms/round"},
	{"actor.new_s", "s"},
	{"actor.step_ms_p50", "ms"},
	{"actor.step_ms_p90", "ms"},
	{"actor.node_updates_per_s", "1/s"},
	{"actor.allocs_per_round", "allocs/round"},
	{"actor.bytes_per_node", "B/node"},
	{"actor.cut_arcs", "count"},
	{"actor.tokens_moved_per_round", "tokens/round"},
	{"sim.self_ms_p50", "ms"},
	{"sim.overhead_ratio", "ratio"},
	{"sim.speed_events", "count"},
	{"sim.scenario_events", "count"},
	{"sim.switches", "count"},
	{"sim.beta_events", "count"},
	{"metrics.sample_ms", "ms"},
	{"metrics.samples", "count"},
	{"workload.deltas_ms", "ms/round"},
	{"workload.injected_tokens", "tokens"},
	{"trace.overhead_ratio", "ratio"},
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

// layerMetrics derives the per-layer metrics of one traced job from its
// spans and the engine's counters. trace.overhead_ratio needs the untraced
// twins and is filled in by the caller.
func layerMetrics(w *workloadDef, jr *jobResult) map[string]float64 {
	in, res := jr.inst, jr.res
	n := float64(jr.nodes)
	rounds := float64(res.Rounds)
	m := make(map[string]float64, len(perLayer))
	for _, d := range perLayer {
		m[d.name] = 0
	}

	// Durations by span name, and each round span's children.
	durs := map[string][]float64{}
	var roundIDs []int32
	childNs := map[int32]int64{}
	for i, s := range jr.spans {
		durs[s.name] = append(durs[s.name], float64(s.dur()))
		if s.name == "sim.round" {
			roundIDs = append(roundIDs, int32(i))
		}
		if s.parent >= 0 && jr.spans[s.parent].name == "sim.round" {
			childNs[s.parent] += s.dur()
		}
	}
	total := func(name string) float64 { return sum(durs[name]) }
	totalPrefix := func(prefix string) float64 {
		t := 0.0
		for name, d := range durs {
			if strings.HasPrefix(name, prefix) {
				t += sum(d)
			}
		}
		return t
	}

	m["graph.build_s"] = total("graph.FromSpec") / 1e9
	m["graph.bytes_per_node"] = float64(in.g.MemoryFootprint()) / n
	m["spectral.operator_s"] = total("spectral.NewOperator") / 1e9
	m["spectral.lambda_s"] = (total("spectral.SecondEigenvalue") + total("spectral.AnalyticTorus2DLambda")) / 1e9
	m["spectral.reopt_s"] = secs(reoptGap(jr.spans, w.layer()))
	m["spectral.bytes_per_node"] = float64(in.op.MemoryFootprint()) / n

	// The engine layer the workload steps on; the other one stays 0.
	l := w.layer()
	step := durs[l+".Step"]
	var mallocs uint64
	for _, s := range jr.spans {
		if s.name == l+".Step" {
			mallocs += s.mallocs
		}
	}
	stepSum := sum(step)
	tokens, msgs := in.proc.Traffic()
	added, _ := in.proc.Injected()
	m[l+".new_s"] = (total("core.NewDiscrete") + total("actor.New")) / 1e9
	m[l+".step_ms_p50"] = quantile(step, 0.5) / 1e6
	m[l+".step_ms_p90"] = quantile(step, 0.9) / 1e6
	m[l+".node_updates_per_s"] = n * float64(len(step)) / (stepSum / 1e9)
	m[l+".allocs_per_round"] = float64(mallocs) / float64(len(step))
	m[l+".bytes_per_node"] = float64(engineFootprint(in.proc)) / n
	m[l+".tokens_moved_per_round"] = float64(tokens) / rounds
	if l == "core" {
		cb := computedBytes(w, jr)
		m["core.edge_messages_per_round"] = float64(msgs) / rounds
		m["core.computed_bytes_per_round"] = cb
		m["core.computed_gb_per_s"] = cb * float64(len(step)) / (stepSum / 1e9) / 1e9
		m["core.inject_ms"] = total("core.Inject") / 1e6 / rounds
	} else {
		m["actor.cut_arcs"] = float64(cutArcs(in))
	}
	m["core.policy_ms"] = total("core.AdaptivePolicy.Decide") / 1e6 / rounds

	roundDur := durs["sim.round"]
	self := make([]float64, 0, len(roundIDs))
	for _, id := range roundIDs {
		self = append(self, float64(jr.spans[id].dur()-childNs[id]))
	}
	m["sim.self_ms_p50"] = quantile(self, 0.5) / 1e6
	m["sim.overhead_ratio"] = quantile(roundDur, 0.5) / quantile(step, 0.5)
	m["sim.speed_events"] = float64(len(res.SpeedEvents))
	m["sim.scenario_events"] = float64(len(res.ScenarioEvents))
	m["sim.switches"] = float64(len(res.Switches))
	m["sim.beta_events"] = float64(len(res.BetaEvents))

	samples := float64(res.Series.Len())
	m["metrics.sample_ms"] = totalPrefix("metrics.Compute/") / 1e6 / samples
	m["metrics.samples"] = samples
	m["workload.deltas_ms"] = total("workload.Deltas") / 1e6 / rounds
	m["workload.injected_tokens"] = float64(added)
	return m
}

// reoptGap sums, over β-event rounds, the gap between the end of the
// round's last Retarget and the start of its SetBeta: in that gap the
// Runner runs only SecondEigenvalue and BetaOpt.
func reoptGap(spans []span, layer string) int64 {
	var gap int64
	for _, s := range spans {
		if s.name != layer+".SetBeta" {
			continue
		}
		var last int64 = -1
		for _, r := range spans {
			if r.name == layer+".Retarget" && r.round == s.round && r.end <= s.start && r.end > last {
				last = r.end
			}
		}
		if last >= 0 {
			gap += s.start - last
		}
	}
	return gap
}

// computedBytes is the memory the three core.Discrete passes touch per
// round, computed from array sizes for the configured scheme and set-up
// speeds: every array a pass reads counts once and every array it writes
// once more. Caches are ignored, so this is a computed count, not a
// measured one.
func computedBytes(w *workloadDef, jr *jobResult) float64 {
	n, m := float64(jr.nodes), float64(jr.arcs)
	// passZ: read x, write z, read speeds when heterogeneous.
	b := 8*n + 8*n
	if !jr.inst.speeds.IsHomogeneous() {
		b += 8 * n
	}
	// passRound: offsets, arcs, mate, α and z reads; the previous flows for
	// SOS; scheduled and next-flow writes.
	b += 4*(n+1) + 4*m + 4*m + 8*m + 8*n + 8*m + 8*m
	if w.kind == core.SOS {
		b += 8 * m
	}
	// passApply: offsets and flows reads, x read and write.
	b += 4*(n+1) + 8*m + 16*n
	return b
}

// cutArcs counts the arcs whose endpoints sit in different actors' shards,
// read from the runtime's own layout.
func cutArcs(in *instance) int {
	lay := in.proc.ShardLayout()
	off, arcs := in.g.Offsets(), in.g.Arcs()
	cut := 0
	for i := 0; i < in.g.NumNodes(); i++ {
		si := lay.ShardOf(i)
		for a := off[i]; a < off[i+1]; a++ {
			if lay.ShardOf(int(arcs[a])) != si {
				cut++
			}
		}
	}
	return cut
}
