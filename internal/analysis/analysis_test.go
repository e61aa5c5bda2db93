package analysis_test

import (
	"os"
	"path/filepath"
	"sync"
	"testing"

	"diffusionlb/internal/analysis"
	"diffusionlb/internal/analysis/driver"
)

var (
	loaderOnce sync.Once
	loaderVal  *driver.Loader
	loaderErr  error
)

// loader returns one shared Loader so the stdlib dependency closure is
// type-checked once across all fixture tests. Fixture tests run
// sequentially (no t.Parallel) because the Loader is not concurrency-safe.
func loader(t testing.TB) *driver.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = driver.NewLoader(moduleRoot(t))
	})
	if loaderErr != nil {
		t.Fatal(loaderErr)
	}
	return loaderVal
}

// moduleRoot walks up from the working directory to the go.mod root.
func moduleRoot(t testing.TB) string {
	t.Helper()
	dir, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			t.Fatal("no go.mod above working directory")
		}
		dir = parent
	}
}

func fixture(name string) string {
	return filepath.Join("testdata", "src", name)
}

func TestNodeterminismFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("nodeterminism"), analysis.Nodeterminism)
}

func TestFloatEqFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("floateq"), analysis.FloatEq)
}

func TestGoroutineLeakFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("goroutineleak"), analysis.GoroutineLeak)
}

// TestSpecRoundtripBadFixture is the failing fixture: a parser whose result
// type lacks Name() in a package with no fuzz target.
func TestSpecRoundtripBadFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("specbad"), analysis.SpecRoundtrip)
}

// TestSpecRoundtripGoodFixture is the passing fixture: Name() present, fuzz
// round-trip target present, zero diagnostics expected.
func TestSpecRoundtripGoodFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("specgood"), analysis.SpecRoundtrip)
}

// TestShardSafetyFixture pins the ownership shapes the analyzer blesses
// (node range, arc range, [s] slot, stored-index replay, //lbvet:doublebuffer)
// and the cross-shard writes it must flag.
func TestShardSafetyFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("shardsafety"), analysis.ShardSafety)
}

// TestHotAllocFixture pins the allocation catalogue on annotated functions
// and the two exemptions: unannotated functions and error-terminating paths.
func TestHotAllocFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("hotalloc"), analysis.HotAlloc)
}

// TestCheckpointSyncFixture pins the both-methods coverage rule on a fixture
// deliberately split across two files, so it also exercises cross-file type
// resolution in RunFixture.
func TestCheckpointSyncFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("checkpointsync"), analysis.CheckpointSync)
}

// TestTelemetryReadFixture pins the write-only telemetry contract: opaque
// handles (registration, recording, Stopwatch, probes) stay clean, while
// any call whose result leaks telemetry state (Value, Seq, Events,
// TakeSnapshot, the Prometheus writer) is a read-back.
func TestTelemetryReadFixture(t *testing.T) {
	driver.RunFixture(t, loader(t), fixture("telemetryread"), analysis.TelemetryRead)
}

// TestMalformedAllowDirectives pins two properties of the escape hatch: a
// directive without a justification is itself reported, and it does not
// suppress the diagnostic it sits next to.
func TestMalformedAllowDirectives(t *testing.T) {
	l := loader(t)
	pkg, err := l.LoadDir(fixture("allowbad"), true)
	if err != nil {
		t.Fatal(err)
	}
	if got := driver.CheckAllowDirectives(pkg); len(got) != 2 {
		t.Fatalf("CheckAllowDirectives reported %d diagnostics, want 2: %v", len(got), got)
	}
	diags, err := driver.Run(analysis.FloatEq, pkg)
	if err != nil {
		t.Fatal(err)
	}
	if len(diags) != 2 {
		t.Fatalf("floateq reported %d diagnostics, want 2 (malformed allow must not suppress): %v", len(diags), diags)
	}
}

// TestSuiteScoping pins which packages each analyzer's contract binds.
func TestSuiteScoping(t *testing.T) {
	byName := map[string]analysis.Scoped{}
	for _, sa := range analysis.Suite() {
		byName[sa.Name] = sa
	}
	if len(byName) != 8 {
		t.Fatalf("suite has %d analyzers, want 8", len(byName))
	}
	cases := []struct {
		analyzer string
		path     string
		want     bool
	}{
		{"nodeterminism", "diffusionlb/internal/core", true},
		{"nodeterminism", "diffusionlb/internal/experiments", false},
		{"nodeterminism", "diffusionlb/cmd/lbsim", true},
		{"nodeterminism", "diffusionlb/internal/analysis/driver", true},
		{"goroutineleak", "diffusionlb/internal/sweep", true},
		{"goroutineleak", "diffusionlb/internal/actor", true},
		{"goroutineleak", "diffusionlb/internal/invariants", true},
		{"goroutineleak", "diffusionlb/internal/viz", false},
		{"nodeterminism", "diffusionlb/internal/actor", true},
		{"shardsafety", "diffusionlb/internal/actor", true},
		{"checkpointsync", "diffusionlb/internal/actor", true},
		{"floateq", "diffusionlb/internal/numeric", false},
		{"floateq", "diffusionlb/internal/experiments", true},
		{"specroundtrip", "diffusionlb/internal/workload", true},
		{"specroundtrip", "diffusionlb/cmd/lbsim", true},
		{"shardsafety", "diffusionlb/internal/core", true},
		{"shardsafety", "diffusionlb/internal/spectral", true},
		{"shardsafety", "diffusionlb/internal/metrics", false},
		{"hotalloc", "diffusionlb/internal/metrics", true},
		{"checkpointsync", "diffusionlb/internal/core", true},
		// telemetryread binds the engines only; the telemetry package itself
		// and the wiring layers legitimately read state back (exposition) —
		// but telemetry does sit inside the nodeterminism net, with
		// //lint:allow on its clock reads.
		{"telemetryread", "diffusionlb/internal/core", true},
		{"telemetryread", "diffusionlb/internal/sim", true},
		{"telemetryread", "diffusionlb/internal/actor", true},
		{"telemetryread", "diffusionlb/internal/telemetry", false},
		{"telemetryread", "diffusionlb/cmd/lbsim", false},
		{"nodeterminism", "diffusionlb/internal/telemetry", true},
		{"goroutineleak", "diffusionlb/internal/telemetry", true},
	}
	for _, c := range cases {
		sa, ok := byName[c.analyzer]
		if !ok {
			t.Fatalf("analyzer %s missing from suite", c.analyzer)
		}
		if got := sa.AppliesTo(c.path); got != c.want {
			t.Errorf("%s.AppliesTo(%s) = %v, want %v", c.analyzer, c.path, got, c.want)
		}
	}
}

// TestLintModuleClean runs the full suite over the real repo — the same
// entrypoint make lint uses — and requires a clean tree. Any new finding
// must be fixed or carry a justified //lint:allow.
func TestLintModuleClean(t *testing.T) {
	if testing.Short() {
		t.Skip("whole-module lint is slow; run without -short")
	}
	l := loader(t)
	diags, pkgs, err := analysis.LintModule(l)
	if err != nil {
		t.Fatal(err)
	}
	if pkgs == 0 {
		t.Fatal("lint walked zero packages")
	}
	for _, d := range diags {
		t.Errorf("%s: %s: %s", l.Fset.Position(d.Pos), d.Analyzer, d.Message)
	}
}
