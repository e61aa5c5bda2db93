package sim

import (
	"strings"
	"testing"

	"diffusionlb/internal/envdyn"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/scenario"
	"diffusionlb/internal/workload"
)

// TestMetricsFor pins the columns lbsim free-form runs and sweep cells
// record for each speed profile and attachment. All-ones speeds count as
// homogeneous, so "range:1" records no max_minus_target.
func TestMetricsFor(t *testing.T) {
	const n = 16
	wl, err := workload.FromSpec("burst:5:100", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	env, err := envdyn.FromSpec("throttle:at=5,frac=0.25,factor=0.5", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	sc, err := scenario.FromSpec("drain:at=5,frac=0.25", n, 1)
	if err != nil {
		t.Fatal(err)
	}
	const base = "max_minus_avg,max_local_diff,potential_per_n"
	for _, sp := range []struct {
		spec, cols string
	}{
		{"", base},
		{"range:1", base},
		{"twoclass:0.25:4", base + ",max_minus_target"},
	} {
		speeds, err := hetero.SpeedsFromSpec(sp.spec, n, 1)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name string
			wl   workload.Mutator
			env  envdyn.Dynamics
			sc   *scenario.Scenario
			cols string
		}{
			{"workload", wl, nil, nil, "discrepancy,peak_discrepancy,total_load"},
			{"env", nil, env, nil, "ideal_drift,speed_sum"},
			{"scenario", nil, nil, sc, "discrepancy,peak_discrepancy,total_load,ideal_drift,speed_sum"},
			{"scenario+workload", wl, nil, sc, "discrepancy,peak_discrepancy,total_load,ideal_drift,speed_sum"},
		} {
			var names []string
			for _, m := range MetricsFor(speeds, tc.wl, tc.env, tc.sc) {
				names = append(names, m.Name())
			}
			if got, want := strings.Join(names, ","), sp.cols+","+tc.cols; got != want {
				t.Errorf("speeds %q, %s: columns %s, want %s", sp.spec, tc.name, got, want)
			}
		}
	}
}
