package sim

import (
	"math"

	"diffusionlb/internal/core"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/metrics"
)

// observation is one round's view of a process's loads, filled lazily:
// each of its three scans runs on first use, in node order, and computes
// its quantities with the exact expressions of the internal/metrics
// functions they replace, so every projection read off it is bit-identical
// to its reference. Runner.Run keeps one per round, shared by the
// telemetry gauges and the recorded metrics; a projection's Compute takes a
// one-shot observation. Only the quantities that need the speeds or the
// graph read p.Operator(): the node scan's quantities need no operator.
type observation struct {
	p    core.Process
	done scans
	// Node scan: Σx, min and max (metrics.Total, MinLoad and MaxLoad).
	n               int
	total, min, max float64
	// Target scan, against x̄_i = total·s_i/Σs (the plain average when the
	// speeds are homogeneous): Σ(x−x̄_i)², max|x−x̄_i| and max(x−x̄_i)
	// (metrics.Potential, HeteroMaxAbsDeviation and HeteroMaxMinusTarget).
	sqDev, absDev, maxDev float64
	// Arc scan: raw φ_local (metrics.MaxLocalDiff).
	local float64
}

// scans is the set of an observation's scans that have run.
type scans uint8

const (
	scanNodes scans = 1 << iota
	scanTargets
	scanArcs
)

// reset forgets the scans, so the next read sees the process as it is now.
func (o *observation) reset() { o.done = 0 }

// nodes runs the node scan once.
func (o *observation) nodes() {
	if o.done&scanNodes != 0 {
		return
	}
	o.done |= scanNodes
	lv := o.p.Loads()
	if lv.Int != nil {
		o.n, o.total, o.min, o.max = nodeStats(lv.Int)
	} else {
		o.n, o.total, o.min, o.max = nodeStats(lv.Float)
	}
}

// targets runs the target scan once, after the node scan it needs.
func (o *observation) targets() {
	if o.done&scanTargets != 0 {
		return
	}
	o.nodes()
	o.done |= scanTargets
	sp, lv := o.p.Operator().Speeds(), o.p.Loads()
	if lv.Int != nil {
		o.sqDev, o.absDev, o.maxDev = targetStats(lv.Int, o.total, sp)
	} else {
		o.sqDev, o.absDev, o.maxDev = targetStats(lv.Float, o.total, sp)
	}
}

// nodeStats returns len(x), Σx, min and max; all zero for an empty x.
func nodeStats[T metrics.Real](x []T) (n int, total, mn, mx float64) {
	if len(x) == 0 {
		return 0, 0, 0, 0
	}
	mn, mx = float64(x[0]), float64(x[0])
	for _, v := range x {
		f := float64(v)
		total += f
		if f < mn {
			mn = f
		}
		if f > mx {
			mx = f
		}
	}
	return len(x), total, mn, mx
}

// targetStats returns Σ(x−x̄_i)², max|x−x̄_i| and max(x−x̄_i) against the
// proportional targets of total under sp.
func targetStats[T metrics.Real](x []T, total float64, sp *hetero.Speeds) (sq, absMax, mx float64) {
	homog, avg := sp.IsHomogeneous(), total/float64(len(x))
	var sSum float64
	if !homog {
		sSum = sp.Sum()
	}
	mx = math.Inf(-1)
	for i, v := range x {
		t := avg
		if !homog {
			t = total * sp.Of(i) / sSum
		}
		d := float64(v) - t
		sq += d * d
		if a := math.Abs(d); a > absMax {
			absMax = a
		}
		if d > mx {
			mx = d
		}
	}
	return sq, absMax, mx
}

// maxMinusAvg is φ_global, max − Σx/n.
func (o *observation) maxMinusAvg() float64 {
	o.nodes()
	if o.n == 0 {
		return 0
	}
	return o.max - o.total/float64(o.n)
}

// discrepancy is max − min.
func (o *observation) discrepancy() float64 {
	o.nodes()
	return o.max - o.min
}

// potentialPerN is φ_t/n, Σ(x−x̄_i)² over the graph's node count.
func (o *observation) potentialPerN() float64 {
	o.targets()
	return o.sqDev / float64(o.p.Operator().Graph().NumNodes())
}

// maxMinusTarget is the speed-proportional φ_global; with homogeneous
// speeds it is φ_global itself.
func (o *observation) maxMinusTarget() float64 {
	if o.p.Operator().Speeds().IsHomogeneous() {
		return o.maxMinusAvg()
	}
	o.targets()
	if o.n == 0 {
		return 0
	}
	return o.maxDev
}

// localDiff is φ_local, the arc scan.
func (o *observation) localDiff() float64 {
	if o.done&scanArcs == 0 {
		o.done |= scanArcs
		g, lv := o.p.Operator().Graph(), o.p.Loads()
		if lv.Int != nil {
			o.local = metrics.MaxLocalDiff(g, lv.Int)
		} else {
			o.local = metrics.MaxLocalDiff(g, lv.Float)
		}
	}
	return o.local
}

// quantity names what a projection reads off an observation.
type quantity uint8

const (
	qMaxMinusAvg quantity = iota
	qMaxLocalDiff
	qPotentialPerN
	qDiscrepancy
	qPeakDiscrepancy
	qMinLoad
	qMinTransient
	qTotalLoad
	qMaxMinusTarget
	qIdealDrift
)

// projection is a built-in Metric: one quantity of an observation. The
// Runner reads it off the round's shared observation; Compute reads it off
// a one-shot observation of p, so a wrapped projection, which the Runner
// cannot see through, records the same bits.
type projection struct {
	name string
	q    quantity
	// peak is PeakDiscrepancy's running maximum; nil for the others.
	peak *float64
}

// Name implements Metric.
func (m projection) Name() string { return m.name }

// Compute implements Metric.
func (m projection) Compute(p core.Process) float64 {
	o := observation{p: p}
	return m.from(&o)
}

// from reads the projection off o, running the scans it needs.
func (m projection) from(o *observation) float64 {
	switch m.q {
	case qMaxMinusAvg:
		return o.maxMinusAvg()
	case qMaxLocalDiff:
		return o.localDiff()
	case qPotentialPerN:
		return o.potentialPerN()
	case qDiscrepancy:
		return o.discrepancy()
	case qPeakDiscrepancy:
		if d := o.discrepancy(); d > *m.peak {
			*m.peak = d
		}
		return *m.peak
	case qMinLoad:
		o.nodes()
		return o.min
	case qMinTransient:
		if v := o.p.MinTransient(); !math.IsInf(v, 1) {
			return v
		}
		o.nodes()
		return o.min
	case qTotalLoad:
		o.nodes()
		return o.total
	case qMaxMinusTarget:
		return o.maxMinusTarget()
	default: // qIdealDrift
		o.targets()
		return o.absDev
	}
}
