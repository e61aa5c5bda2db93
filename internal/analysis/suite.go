// Package analysis is the lbvet analyzer suite: the static half of the
// repo's determinism and conservation contract.
//
// Eight analyzers cover the contract the pinned tests otherwise only catch
// after the fact:
//
//   - nodeterminism: no wall-clock reads, no global math/rand draws, no
//     order-dependent map iteration in engine code.
//   - floateq: no raw ==/!= on floats outside internal/numeric's tolerance
//     helpers.
//   - specroundtrip: every *FromSpec parser returns a Name()-carrying type
//     and has a fuzz round-trip test.
//   - goroutineleak: go statements flow through shard.Run or carry a
//     context.Context.
//   - shardsafety: writes inside (s, lo, hi int) pass bodies are provably
//     shard-local (dataflow over the driver's CFG).
//   - hotalloc: //lbvet:hotpath functions are allocation-free outside
//     error-terminating paths.
//   - checkpointsync: fields a Checkpoint/Restore-carrying type mutates are
//     covered by both methods.
//   - telemetryread: engine code records into telemetry handles but never
//     reads telemetry state back — trajectories must not depend on
//     observability.
//
// Legitimate exceptions are annotated in-source with
// "//lint:allow <analyzer> <justification>"; the justification is mandatory.
// cmd/lbvet runs the suite over the whole module (make lint), and
// internal/invariants is the matching runtime half. The suite is
// self-clean: internal/analysis and its driver are inside the
// nodeterminism/goroutineleak scope too.
package analysis

import (
	"strings"

	"diffusionlb/internal/analysis/driver"
)

// enginePackages are the deterministic-core packages the strictest
// contracts bind: everything that executes between a spec and a recorded
// series. shardsafety binds exactly these — pass bodies only exist where
// Layout.Run is reachable.
var enginePackages = []string{
	"diffusionlb/internal/shard",
	"diffusionlb/internal/actor",
	"diffusionlb/internal/core",
	"diffusionlb/internal/sim",
	"diffusionlb/internal/sweep",
	"diffusionlb/internal/workload",
	"diffusionlb/internal/envdyn",
	"diffusionlb/internal/scenario",
	"diffusionlb/internal/nodeset",
	"diffusionlb/internal/spectral",
}

// determinismExtra widens the nodeterminism/goroutineleak net beyond the
// engines: the runtime-invariant layer, the telemetry layer, the analysis
// suite itself (self-clean), and every cmd/ binary. These layers may
// legitimately read clocks (a round-latency histogram needs time.Since) —
// such reads carry //lint:allow justifications instead of living outside
// the scope.
var determinismExtra = []string{
	"diffusionlb/internal/invariants",
	"diffusionlb/internal/telemetry",
	"diffusionlb/internal/analysis",
	"diffusionlb/cmd",
}

// Scoped pairs an analyzer with the set of packages its contract applies
// to. The fixture tests bypass scoping (they run analyzers directly), so
// scope lives here rather than inside each analyzer.
type Scoped struct {
	*driver.Analyzer
	// AppliesTo reports whether the analyzer's contract covers the package.
	AppliesTo func(importPath string) bool
}

// inAny reports whether path is one of (or nested under one of) roots.
func inAny(path string, roots []string) bool {
	for _, p := range roots {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Suite returns the full lbvet analyzer suite with its package scoping.
func Suite() []Scoped {
	inEngine := func(path string) bool { return inAny(path, enginePackages) }
	inDeterminism := func(path string) bool {
		return inAny(path, enginePackages) || inAny(path, determinismExtra)
	}
	return []Scoped{
		{Nodeterminism, inDeterminism},
		{GoroutineLeak, inDeterminism},
		// floateq covers the whole module except numeric itself (the home of
		// the approved comparison helpers).
		{FloatEq, func(path string) bool { return path != "diffusionlb/internal/numeric" }},
		// The spec-grammar convention binds every package that declares a
		// parser.
		{SpecRoundtrip, func(string) bool { return true }},
		// Pass bodies only exist in engine code; hotpath annotations and
		// Checkpoint/Restore pairs can appear anywhere, so those two bind the
		// whole module.
		{ShardSafety, inEngine},
		{HotAlloc, func(string) bool { return true }},
		{CheckpointSync, func(string) bool { return true }},
		// telemetryread binds exactly the engines: the telemetry package and
		// the wiring layers (cmd/) are where read-backs belong.
		{TelemetryRead, inEngine},
	}
}
