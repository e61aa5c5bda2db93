package sim

import (
	"fmt"

	"diffusionlb/internal/core"
	"diffusionlb/internal/invariants"
	"diffusionlb/internal/numeric"
	"diffusionlb/internal/shard"
)

// invariantChecker asserts the runtime conservation contract on the main
// process while a Runner drives it. The Runner only builds one when the
// build carries -tags=invariants (invariants.Enabled), so release builds
// pay nothing.
//
// Per round it asserts, via invariants.Must (which panics with a
// *invariants.Violation):
//
//   - total load conservation after every Step: exact for integer engines,
//     within invariants.ConservationTol for float engines (the float
//     baseline is refreshed each round, so reduction error cannot
//     accumulate into a spurious trip, and every injection shifts the
//     baseline by its delta sum — the one legitimate way totals move);
//   - non-negativity after a Step, but only when the process certifies it
//     (core.NonNegativeGuarantor, queried every round: hybrid switching
//     changes the answer) AND the vector was non-negative going in — SOS
//     negative transients and workload removals are legitimate and must
//     not trip the runtime contract;
//   - column-stochasticity of the operator after every Reweight, within
//     invariants.StochasticTol.
//
// When the process runs on a shard layout (core.Sharded), the per-round
// conservation reductions go through that layout with per-shard partials
// combined in shard order, so invariant-checked runs at 2²⁰ nodes keep pace
// with the step path instead of adding a single-threaded O(n) scan per
// round. The grouping is fixed by the layout, so the float baseline stays
// bit-stable across worker counts. The post-reweight column sums run once
// per speed event and scan inline.
type invariantChecker struct {
	proc       core.Process
	guarantor  core.NonNegativeGuarantor // nil when the process cannot certify
	inFlight   core.InFlightReporter     // nil when the transport holds no load
	lay        *shard.Layout             // nil when the process is not Sharded
	prevNonNeg bool
	isInt      bool
	expInt     int64
	expFloat   float64
	cols       []float64
}

func newInvariantChecker(p core.Process) *invariantChecker {
	c := &invariantChecker{proc: p}
	c.guarantor, _ = p.(core.NonNegativeGuarantor)
	c.inFlight, _ = p.(core.InFlightReporter)
	if sh, ok := p.(core.Sharded); ok {
		c.lay = sh.ShardLayout()
	}
	lv := p.Loads()
	if lv.Int != nil {
		c.isInt = true
		c.expInt = c.sumInt(lv.Int) + c.inFlightLoad()
	} else {
		c.expFloat = c.sumFloat(lv.Float) + float64(c.inFlightLoad())
	}
	c.refreshNonNeg(lv)
	return c
}

// inFlightLoad returns the transport's in-flight load, zero for processes
// whose steps move all flux within the round. Conservation for a
// bounded-staleness transport (core.InFlightReporter) is on
// Σ loads + in-flight: flux debited from a sender may ride a version ring
// for up to the staleness bound before the receiver credits it.
func (c *invariantChecker) inFlightLoad() int64 {
	if c.inFlight == nil {
		return 0
	}
	return c.inFlight.InFlightLoad()
}

// sumInt reduces an integer load vector, through the shard layout when the
// process has one.
func (c *invariantChecker) sumInt(x []int64) int64 {
	if c.lay != nil && c.lay.Nodes() == len(x) {
		return shard.SumInt64(c.lay, x)
	}
	return numeric.SumInt64(x)
}

// sumFloat reduces a float load vector with the layout's fixed grouping.
func (c *invariantChecker) sumFloat(x []float64) float64 {
	if c.lay != nil && c.lay.Nodes() == len(x) {
		return shard.SumFloat64(c.lay, x)
	}
	return numeric.Sum(x)
}

func (c *invariantChecker) refreshNonNeg(lv core.LoadView) {
	if c.isInt {
		c.prevNonNeg = invariants.NonNegativeInt64(lv.Int, "") == nil
	} else {
		c.prevNonNeg = invariants.NonNegativeFloat64(lv.Float, invariants.NonNegativeTol, "") == nil
	}
}

// afterStep asserts conservation — and non-negativity, when guaranteed —
// right after the round's Step.
func (c *invariantChecker) afterStep(round int) {
	ctx := fmt.Sprintf("sim: after step of round %d", round)
	lv := c.proc.Loads()
	if c.isInt {
		invariants.Must(invariants.ConservedInt64(c.sumInt(lv.Int)+c.inFlightLoad(), c.expInt, ctx))
	} else {
		got := c.sumFloat(lv.Float) + float64(c.inFlightLoad())
		invariants.Must(invariants.ConservedFloat64(got, c.expFloat, invariants.ConservationTol, ctx))
		c.expFloat = got
	}
	if c.prevNonNeg && c.guarantor != nil && c.guarantor.GuaranteesNonNegative() {
		if c.isInt {
			invariants.Must(invariants.NonNegativeInt64(lv.Int, ctx))
		} else {
			invariants.Must(invariants.NonNegativeFloat64(lv.Float, invariants.NonNegativeTol, ctx))
		}
	}
	c.refreshNonNeg(lv)
}

// afterInject shifts the conservation baseline by the injected delta sum
// and refreshes the non-negativity precondition (a removal may legally
// drive a node negative; that is the workload's doing, not the engine's).
func (c *invariantChecker) afterInject(deltas []int64) {
	var sum int64
	for _, d := range deltas {
		sum += d
	}
	if c.isInt {
		c.expInt += sum
	} else {
		c.expFloat += float64(sum)
	}
	c.refreshNonNeg(c.proc.Loads())
}

// afterReweight asserts the reweighted operator is still column-stochastic
// — the structural property load conservation rests on.
func (c *invariantChecker) afterReweight(round int) {
	op := c.proc.Operator()
	n := op.Graph().NumNodes()
	if len(c.cols) != n {
		c.cols = make([]float64, n)
	}
	invariants.Must(op.ColumnSums(c.cols))
	invariants.Must(invariants.ColumnStochastic(c.cols, invariants.StochasticTol,
		fmt.Sprintf("sim: operator after reweight at round %d", round)))
}
