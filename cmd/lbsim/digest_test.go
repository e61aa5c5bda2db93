package main

import (
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"testing"
)

// runStdout runs lbsim with args and returns everything it printed to
// stdout, failing the test if the run fails.
func runStdout(t *testing.T, args []string) []byte {
	t.Helper()
	b, err := captureStdout(t, args)
	if err != nil {
		t.Fatalf("run(%q): %v", args, err)
	}
	return b
}

// captureStdout runs lbsim with args and returns everything it printed to
// stdout and the run's error. It swaps os.Stdout for a pipe, so its callers
// must not run in parallel.
func captureStdout(t *testing.T, args []string) ([]byte, error) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	out := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		out <- b
	}()
	runErr := func() error {
		defer func() { os.Stdout = saved }()
		return run(args)
	}()
	w.Close()
	b := <-out
	r.Close()
	return b, runErr
}

// TestStdoutDigests pins lbsim's stdout bit for bit: every seed, λ, β,
// metric set and recorded value reaches the digest. The cases cover every
// branch of the run builder (each rounder, both actor modes, speeds,
// workload, policy, env and scenario with β re-opt, -spectrum) and CSV and
// JSON sweeps over every axis, on graphs whose λ comes in closed form
// (torus2d, hypercube) and by power iteration (regular). A change that
// moves a digest changes what lbsim prints; re-pin only on purpose.
func TestStdoutDigests(t *testing.T) {
	cases := []struct {
		name   string
		args   []string
		digest string
	}{
		{"randomized", []string{"-graph", "torus2d:16x16", "-scheme", "sos", "-rounder", "randomized",
			"-rounds", "200"}, "268a047b73b8edd2"},
		{"floor", []string{"-graph", "hypercube:6", "-scheme", "sos", "-rounder", "floor",
			"-rounds", "120", "-every", "3"}, "4964448211a34572"},
		{"bernoulli", []string{"-graph", "regular:128:4", "-scheme", "fos", "-rounder", "bernoulli",
			"-rounds", "100", "-avg", "500"}, "b29235d3dbbe4ac1"},
		{"continuous", []string{"-graph", "cycle:32", "-scheme", "sos", "-rounder", "continuous",
			"-rounds", "100", "-workload", "churn:5:20:20"}, "34576a2d3c1ad3ac"},
		{"cumulative", []string{"-graph", "torus2d:12x12", "-scheme", "sos", "-rounder", "cumulative",
			"-rounds", "100", "-speeds", "range:4"}, "66f7a3b100fe5a46"},
		{"actor-barrier", []string{"-graph", "torus2d:16x16", "-scheme", "sos", "-runtime", "actor:2",
			"-workload", "burst:30:5000", "-policy", "adaptive:8:64:5", "-rounds", "100"}, "fdf3619ffa04e278"},
		{"actor-stale", []string{"-graph", "torus2d:16x16", "-scheme", "fos", "-runtime", "actor:3,stale=2",
			"-speeds", "twoclass:0.25:4", "-env", "throttle:at=20,frac=0.25,factor=0.25", "-rounds", "100"}, "a0777e7b98dd3e6f"},
		{"speeds-workload-policy", []string{"-graph", "torus2d:16x16", "-scheme", "sos",
			"-speeds", "twoclass:0.25:4", "-workload", "hotspot:20:2000+poisson:0.5",
			"-policy", "adaptive:16:64:10", "-rounds", "150", "-every", "5", "-rows", "40"}, "353e788de4d9592d"},
		{"env-betareopt", []string{"-graph", "torus2d:16x16", "-scheme", "sos", "-speeds", "twoclass:0.25:4",
			"-env", "throttle:at=30,frac=0.25,factor=0.25,until=90", "-betareopt", "0.05",
			"-rounds", "150"}, "fa022d2cd8c37225"},
		{"scenario-betareopt", []string{"-graph", "regular:256:6", "-scheme", "sos", "-speeds", "twoclass:0.25:4",
			"-scenario", "drain:at=20,frac=0.25,ramp=4,restore=60", "-betareopt", "0.05",
			"-policy", "adaptive:16:64:10", "-rounds", "120"}, "c5a641e04ccb6393"},
		{"spectrum", []string{"-graph", "regular:512:8", "-speeds", "powerlaw:2.5:8", "-spectrum"}, "c688da31823eb4fd"},
		// The step-worker twins: a -stepworkers 4 run on 4096 nodes must
		// print exactly what the sequential run prints.
		{"stepworkers-0", []string{"-graph", "torus2d:64x64", "-scheme", "sos", "-rounds", "60",
			"-workload", "hotspot:20:10000"}, "e214908bf2db9707"},
		{"stepworkers-4", []string{"-graph", "torus2d:64x64", "-scheme", "sos", "-rounds", "60",
			"-workload", "hotspot:20:10000", "-stepworkers", "4"}, "e214908bf2db9707"},
		{"sweep-runtime-rounder-csv", []string{"-sweep", "-graph", "torus2d:8x8,hypercube:5,regular:64:4",
			"-scheme", "sos,fos", "-runtime", ";actor:2;actor:3,stale=1", "-rounder", "randomized,floor",
			"-replicates", "2", "-rounds", "40", "-format", "csv"}, "27de55d1810e37a8"},
		{"sweep-speeds-env-beta-json", []string{"-sweep", "-graph", "torus2d:8x8,regular:64:4",
			"-scheme", "sos,fos", "-speeds", ",twoclass:0.25:4", "-env", ";throttle:at=10,frac=0.25,factor=0.25",
			"-beta", "0,1.5", "-rounder", "randomized,continuous,cumulative", "-replicates", "2",
			"-rounds", "40", "-format", "json"}, "9aef659def038793"},
		{"sweep-scenario-policy-csv", []string{"-sweep", "-graph", "torus2d:8x8,hypercube:5,regular:64:4",
			"-scheme", "sos,fos", "-speeds", "twoclass:0.25:4", "-workload", ";burst:10:3000",
			"-scenario", ";drain:at=10,frac=0.25,ramp=4", "-policy", ";adaptive:8:64:5",
			"-rounds", "40", "-every", "4", "-format", "csv"}, "c437b88aa9fac47e"},
	}
	for _, tc := range cases {
		h := fnv.New64a()
		h.Write(runStdout(t, tc.args))
		if got := fmt.Sprintf("%016x", h.Sum64()); got != tc.digest {
			t.Errorf("%s: stdout digest %s, want %s", tc.name, got, tc.digest)
		}
	}
}
