// Package spectral builds diffusion matrices and computes the spectral
// quantities that govern diffusion load balancing: the second largest
// eigenvalue λ (in magnitude) of the diffusion matrix M and the optimal
// second-order parameter β_opt = 2/(1+√(1−λ²)) (Section II of the paper,
// reproduced in Table I).
//
// The diffusion matrix follows the paper throughout:
//
//	homogeneous:   M_ij = α_ij,             M_ii = 1 − Σ_j α_ij
//	heterogeneous: M = I − L S⁻¹  with L the α-weighted Laplacian and
//	               S = diag(s_i), i.e. flows y_ij = α_ij (x_i/s_i − x_j/s_j)
//
// with the standard rule α_ij = 1/(max(d_i, d_j)+1) unless configured
// otherwise. M is column-stochastic (load conserving) and similar to the
// symmetric matrix I − S^{−1/2} L S^{−1/2}, so its spectrum is real; λ is
// computed by power iteration on the symmetrized operator with the principal
// eigenvector (√s_i) deflated away.
package spectral

import (
	"errors"
	"fmt"
	"math"

	"diffusionlb/internal/graph"
	"diffusionlb/internal/hetero"
	"diffusionlb/internal/numeric"
	"diffusionlb/internal/randx"
)

// ErrNoConvergence is returned when power iteration fails to reach the
// requested tolerance within the iteration budget.
var ErrNoConvergence = errors.New("spectral: power iteration did not converge")

// AlphaRule determines the per-edge diffusion coefficient α_ij.
type AlphaRule interface {
	// Alpha returns α for the edge {i, j} of g. It must be symmetric in
	// (i, j) and positive.
	Alpha(g *graph.Graph, i, j int) float64
	// String names the rule for reports.
	String() string
}

// MaxDegreeAlpha is the paper's default α_ij = 1/(max(d_i, d_j)+1).
type MaxDegreeAlpha struct{}

// Alpha implements AlphaRule.
func (MaxDegreeAlpha) Alpha(g *graph.Graph, i, j int) float64 {
	di, dj := g.Degree(i), g.Degree(j)
	if dj > di {
		di = dj
	}
	return 1 / float64(di+1)
}

func (MaxDegreeAlpha) String() string { return "alpha=1/(max(di,dj)+1)" }

// ConstantAlpha uses a fixed α on every edge (the α_ij = 1/(γd) family of
// Observation 3). The constructor of Operator validates that the resulting
// diagonal stays non-negative.
type ConstantAlpha struct{ Value float64 }

// Alpha implements AlphaRule.
func (c ConstantAlpha) Alpha(*graph.Graph, int, int) float64 { return c.Value }

func (c ConstantAlpha) String() string { return fmt.Sprintf("alpha=%g", c.Value) }

// GammaDegreeAlpha is α_ij = 1/(γ·d) with d the maximum degree, the exact
// setting of Observation 3 (γ >= 1 keeps M non-negative for γ >= (d+1)/d).
type GammaDegreeAlpha struct{ Gamma float64 }

// Alpha implements AlphaRule.
func (ga GammaDegreeAlpha) Alpha(g *graph.Graph, _, _ int) float64 {
	return 1 / (ga.Gamma * float64(g.MaxDegree()))
}

func (ga GammaDegreeAlpha) String() string { return fmt.Sprintf("alpha=1/(%g*d)", ga.Gamma) }

// Operator is the diffusion matrix M = I − L S⁻¹ of a graph with speeds,
// stored implicitly: α per arc plus the speed vector. It supports fast
// matrix-vector products with M and Mᵀ and densification for small graphs.
// It remembers λ for the speed vectors it recently saw, so a recently seen
// speed vector reuses its λ bit for bit.
//
// Concurrency: all read operations (products, Dense, SecondEigenvalue) are
// safe to call concurrently. Reweight mutates the operator in place and
// must not run concurrently with any other method — drivers apply it
// between simulation rounds, on operators not shared across concurrent
// runs (Clone gives each run its own).
type Operator struct {
	g      *graph.Graph
	speeds *hetero.Speeds
	alpha  []float64 // per arc, symmetric across mates
	rule   AlphaRule
	// rowAlphaSum[i] = Σ_{j∈N(i)} α_ij, cached for the diagonal.
	rowAlphaSum []float64
	// lambdas holds SecondEigenvalue's results for recent speed vectors.
	lambdas lambdaMemo
}

// NewOperator builds the diffusion operator for g with the given speeds
// (nil means homogeneous) and α rule (nil means MaxDegreeAlpha). It returns
// an error if any diagonal entry of M would be negative, i.e. if the α rule
// is too aggressive for the degree/speed profile.
func NewOperator(g *graph.Graph, speeds *hetero.Speeds, rule AlphaRule) (*Operator, error) {
	if g == nil {
		return nil, errors.New("spectral: nil graph")
	}
	if rule == nil {
		rule = MaxDegreeAlpha{}
	}
	if speeds == nil {
		speeds = hetero.Homogeneous(g.NumNodes())
	}
	if speeds.Len() != g.NumNodes() {
		return nil, fmt.Errorf("spectral: %d speeds for %d nodes", speeds.Len(), g.NumNodes())
	}
	n := g.NumNodes()
	offsets, arcs := g.Offsets(), g.Arcs()
	alpha := make([]float64, len(arcs))
	rowSum := make([]float64, n)
	for i := 0; i < n; i++ {
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := int(arcs[a])
			v := rule.Alpha(g, i, j)
			if v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("spectral: alpha(%d,%d)=%g invalid", i, j, v)
			}
			alpha[a] = v
			rowSum[i] += v
		}
	}
	for i := 0; i < n; i++ {
		if diag := 1 - rowSum[i]/speeds.Of(i); diag < -1e-12 {
			return nil, fmt.Errorf("spectral: negative diagonal %g at node %d (alpha rule too large)", diag, i)
		}
	}
	return &Operator{g: g, speeds: speeds, alpha: alpha, rule: rule, rowAlphaSum: rowSum}, nil
}

// Graph returns the underlying graph.
func (op *Operator) Graph() *graph.Graph { return op.g }

// ShapeMatches reports whether the operator covers a graph of exactly the
// given node and arc counts — the Retarget precondition shared by the
// shared-memory engines and the actor runtime (a retargeted operator may
// be a different instance, but must address the same CSR shape).
func (op *Operator) ShapeMatches(nodes, arcs int) bool {
	return op.g.NumNodes() == nodes && op.g.NumArcs() == arcs
}

// Speeds returns the speed assignment.
func (op *Operator) Speeds() *hetero.Speeds { return op.speeds }

// Rule returns the α rule in use.
func (op *Operator) Rule() AlphaRule { return op.rule }

// AlphaArc returns α for the arc at position a in the CSR arc array.
func (op *Operator) AlphaArc(a int) float64 { return op.alpha[a] }

// Alphas returns a copy of the per-arc α coefficients, so callers can never
// corrupt the operator's internal storage by mutating the result. Hot loops
// that run every round should copy once (AlphasInto) and reuse the buffer,
// as the engines do.
func (op *Operator) Alphas() []float64 {
	out := make([]float64, len(op.alpha))
	copy(out, op.alpha)
	return out
}

// AlphasInto copies the per-arc α coefficients into dst, which must have
// length NumArcs — the allocation-free form of Alphas for per-round use.
func (op *Operator) AlphasInto(dst []float64) error {
	if len(dst) != len(op.alpha) {
		return fmt.Errorf("spectral: AlphasInto: %d slots for %d arcs", len(dst), len(op.alpha))
	}
	copy(dst, op.alpha)
	return nil
}

// AlphaView exposes the per-arc α coefficients as a read-only view — the
// zero-copy hot-loop access the engines use. α is a function of the graph
// alone (an AlphaRule never sees speeds), so the view stays valid across
// Reweight; callers must not modify it. External callers that cannot
// guarantee read-only use should take Alphas() instead.
func (op *Operator) AlphaView() []float64 { return op.alpha }

// Reweight swaps the operator's speed vector in place (nil means
// homogeneous), revalidating that every diagonal entry of M stays
// non-negative. The α coefficients are functions of the graph alone (an
// AlphaRule never sees speeds), so the CSR α storage and the cached row
// sums are reused as-is; that is what makes Reweight much cheaper than
// rebuilding the operator with NewOperator. The λ memo is keyed by the
// speed vector's content, so Reweight invalidates nothing: a recently seen
// speed vector reuses its λ bit for bit.
//
// On error the operator is left unchanged. Reweight must not run
// concurrently with any other method on this operator; drivers apply it
// between rounds (see the struct's concurrency note).
//
//lbvet:hotpath speed events can fire every round; the swap is O(n) with no allocation
func (op *Operator) Reweight(speeds *hetero.Speeds) error {
	n := op.g.NumNodes()
	if speeds == nil {
		speeds = hetero.Homogeneous(n)
	}
	if speeds.Len() != n {
		return fmt.Errorf("spectral: Reweight: %d speeds for %d nodes", speeds.Len(), n)
	}
	if speeds == op.speeds {
		return nil
	}
	for i := 0; i < n; i++ {
		if diag := 1 - op.rowAlphaSum[i]/speeds.Of(i); diag < -1e-12 {
			return fmt.Errorf("spectral: Reweight: negative diagonal %g at node %d (alpha rule too large for the new speeds)", diag, i)
		}
	}
	op.speeds = speeds
	return nil
}

// MemoryFootprint returns the resident bytes of the operator's own storage
// (the per-arc α array and the cached row sums); the graph is accounted
// separately by graph.Graph.MemoryFootprint, since it is typically shared.
func (op *Operator) MemoryFootprint() int64 {
	return int64(len(op.alpha)+len(op.rowAlphaSum)) * 8
}

// Clone returns an independent operator over the same (immutable) graph
// with its own α storage, speed reference and a copy of the λ memo.
// Concurrent simulations that reweight mid-run must each own a clone;
// sharing one reweightable operator across goroutines is a data race.
func (op *Operator) Clone() *Operator {
	cp := &Operator{
		g:           op.g,
		speeds:      op.speeds,
		alpha:       make([]float64, len(op.alpha)),
		rule:        op.rule,
		rowAlphaSum: make([]float64, len(op.rowAlphaSum)),
	}
	copy(cp.alpha, op.alpha)
	copy(cp.rowAlphaSum, op.rowAlphaSum)
	cp.lambdas.ent = op.lambdas.entries()
	return cp
}

// MulVec computes dst = M·x, i.e. one synchronous continuous FOS round:
// dst_i = x_i − Σ_{j∈N(i)} α_ij (x_i/s_i − x_j/s_j). dst is reused when it
// has length n; x and dst must not alias.
func (op *Operator) MulVec(x, dst []float64) []float64 {
	n := op.g.NumNodes()
	if len(x) != n {
		panic(fmt.Sprintf("spectral: MulVec: vector length %d != n=%d", len(x), n))
	}
	if len(dst) != n {
		dst = make([]float64, n)
	}
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for i := 0; i < n; i++ {
		zi := x[i] / op.speeds.Of(i)
		var out float64
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := arcs[a]
			out += float64(op.alpha[a] * (zi - x[j]/op.speeds.Of(int(j))))
		}
		dst[i] = x[i] - out
	}
	return dst
}

// MulVecT computes dst = Mᵀ·y:
// dst_j = y_j − (1/s_j) Σ_{i∈N(j)} α_ij (y_j − y_i).
func (op *Operator) MulVecT(y, dst []float64) []float64 {
	n := op.g.NumNodes()
	if len(y) != n {
		panic(fmt.Sprintf("spectral: MulVecT: vector length %d != n=%d", len(y), n))
	}
	if len(dst) != n {
		dst = make([]float64, n)
	}
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for j := 0; j < n; j++ {
		var acc float64
		for a := offsets[j]; a < offsets[j+1]; a++ {
			acc += float64(op.alpha[a] * (y[j] - y[arcs[a]]))
		}
		dst[j] = y[j] - acc/op.speeds.Of(j)
	}
	return dst
}

// Dense materializes M for small graphs (tests, Q(t) analysis).
func (op *Operator) Dense() *numeric.Dense {
	n := op.g.NumNodes()
	m := numeric.NewDense(n, n)
	offsets, arcs := op.g.Offsets(), op.g.Arcs()
	for i := 0; i < n; i++ {
		m.Set(i, i, 1-op.rowAlphaSum[i]/op.speeds.Of(i))
		for a := offsets[i]; a < offsets[i+1]; a++ {
			j := int(arcs[a])
			// Column-stochastic orientation: load moves j -> i with weight
			// α_ij/s_j, so M_ij = α_ij/s_j (and x(t+1) = M x(t)).
			m.Set(i, j, op.alpha[a]/op.speeds.Of(j))
		}
	}
	return m
}

// ColumnSums writes M's column sums into dst (length n). A well-formed
// operator is exactly column-stochastic — column j is its diagonal
// 1 − Σα/s_j plus the α_ij/s_j contributions of j's neighbors, which
// cancel when α is symmetric across arc mates — so the sums are an
// independent runtime check of that symmetry: internal/invariants asserts
// them after every Reweight.
//
// The accumulation gathers per column: column j adds its neighbors'
// contributions α_ij/s_j in ascending neighbor order (adjacency lists are
// sorted), reading each α through the mate index — the same float the old
// scatter over rows added, in the same i-ascending order, so the result is
// bit-identical to the historical scatter form.
//
//lbvet:hotpath conservation-check kernel, run per verification round over every arc
func (op *Operator) ColumnSums(dst []float64) error {
	n := op.g.NumNodes()
	if len(dst) != n {
		return fmt.Errorf("spectral: ColumnSums: %d slots for %d nodes", len(dst), n)
	}
	offsets, mate := op.g.Offsets(), op.g.MateIndex()
	for j := 0; j < n; j++ {
		sj := op.speeds.Of(j)
		acc := 1 - op.rowAlphaSum[j]/sj
		for a := offsets[j]; a < offsets[j+1]; a++ {
			acc += op.alpha[mate[a]] / sj
		}
		dst[j] = acc
	}
	return nil
}

// PowerOptions tunes SecondEigenvalue.
type PowerOptions struct {
	// MaxIter bounds the iteration count (default 200000).
	MaxIter int
	// Tol is the relative eigenvalue-change tolerance (default 1e-12).
	Tol float64
	// Seed seeds the random start vector (default 1).
	Seed uint64
}

func (o PowerOptions) withDefaults() PowerOptions {
	if o.MaxIter <= 0 {
		o.MaxIter = 200000
	}
	if o.Tol <= 0 {
		o.Tol = 1e-12
	}
	if o.Seed == 0 {
		o.Seed = 1
	}
	return o
}

// SecondEigenvalue returns λ, the second largest eigenvalue of M in
// magnitude, computed by deflated power iteration on the symmetric
// similarity transform of M. The returned value is the magnitude |λ₂|
// (which is what β_opt and every bound in the paper uses) together with the
// signed Rayleigh quotient of the converged vector.
//
// Converged results are memoized per speed vector content and options for
// the two most recently used such keys, so a recently seen speed vector
// reuses its λ bit for bit: a repeated call, a checkpoint restore or a speed
// restore after Reweight is answered without iterating.
func (op *Operator) SecondEigenvalue(opts PowerOptions) (lambda, signed float64, err error) {
	opts = opts.withDefaults()
	if lambda, signed, ok := op.lambdas.get(op.speeds, opts); ok {
		return lambda, signed, nil
	}
	lambda, signed, err = op.secondEigenvalue(opts)
	if err == nil {
		op.lambdas.put(lambdaEntry{speeds: op.speeds, opts: opts, lambda: lambda, signed: signed})
	}
	return lambda, signed, err
}

// secondEigenvalue is the power iteration behind SecondEigenvalue, without
// the memo; opts already has defaults applied.
func (op *Operator) secondEigenvalue(opts PowerOptions) (lambda, signed float64, err error) {
	n := op.g.NumNodes()
	if n < 2 {
		return 0, 0, errors.New("spectral: need at least 2 nodes")
	}
	it := powerIteration{
		offsets:   op.g.Offsets(),
		arcs:      op.g.Arcs(),
		alpha:     op.alpha,
		invSqrtS:  make([]float64, n),
		principal: make([]float64, n), // B's principal eigenvector ∝ √s_i
		x:         make([]float64, n),
		y:         make([]float64, n),
		u:         make([]float64, n),
	}
	for i := 0; i < n; i++ {
		s := op.speeds.Of(i)
		it.invSqrtS[i] = 1 / math.Sqrt(s)
		it.principal[i] = math.Sqrt(s)
	}
	numeric.Normalize(it.principal)

	rng := randx.New(opts.Seed)
	x := it.x
	for i := range x {
		x[i] = rng.Float64() - 0.5
	}
	deflate := func(v []float64) {
		c := numeric.Dot(v, it.principal)
		numeric.AXPY(-c, it.principal, v)
	}
	deflate(x)
	if numeric.Normalize(x) == 0 {
		// Pathological start; use a deterministic alternative.
		x[0], x[n-1] = 1, -1
		deflate(x)
		numeric.Normalize(x)
	}
	for i, v := range x {
		it.u[i] = v * it.invSqrtS[i]
	}

	prev := math.Inf(1)
	for iter := 0; iter < opts.MaxIter; iter++ {
		var norm float64
		norm, signed = it.step()
		if norm == 0 {
			return 0, 0, nil // M restricted to the complement is nilpotent-zero
		}
		if math.Abs(norm-prev) <= opts.Tol*(1+norm) && iter > 8 {
			return norm, signed, nil
		}
		prev = norm
	}
	return prev, signed, fmt.Errorf("%w after %d iterations (last |λ|≈%.9g)", ErrNoConvergence, opts.MaxIter, prev)
}

// powerIteration is the state of deflated power iteration on the
// symmetrized operator B = S^{−1/2} M S^{1/2} = I − S^{−1/2} L S^{−1/2}:
// the unit iterate x, its image y, u = x∘S^{−1/2} (the per-node factor
// every arc of the product reads) and the deflated principal eigenvector.
type powerIteration struct {
	offsets, arcs []int32
	alpha         []float64
	invSqrtS      []float64
	principal     []float64 // unit vector ∝ √s_i
	x, y, u       []float64
}

// step runs one iteration: y = B·x, deflated against the principal
// eigenvector, the Rayleigh quotient x·y (‖x‖ = 1), and x ← y/‖y‖ with its
// u. It returns ‖y‖ and the quotient; ‖y‖ = 0 ends the iteration, so y is
// then left unscaled.
//
// It makes three passes: the product, which also accumulates the
// deflation coefficient y·p; the deflation, which also accumulates x·y
// and ‖y‖²; and the scaling, which also writes the next u. Every sum must
// run in ascending node order over the same operands as numeric.Dot,
// AXPY and Normalize would: λ's bits, and so β and every SOS trajectory,
// depend on it (TestSecondEigenvalueBits pins them).
//
//lbvet:hotpath thousands of steps per λ, each over every arc
func (it *powerIteration) step() (norm, signed float64) {
	offsets, arcs, alpha := it.offsets, it.arcs, it.alpha
	y := it.y
	n := len(y)
	x, u, p, invSqrtS := it.x[:n], it.u[:n], it.principal[:n], it.invSqrtS[:n]

	// y_i = x_i − (1/√s_i) Σ_j α_ij (u_i − u_j), and c = y·p.
	var c float64
	for i := range y {
		ui := u[i]
		lo, hi := offsets[i], offsets[i+1]
		row, rowAlpha := arcs[lo:hi], alpha[lo:hi]
		var acc float64
		for k, j := range row {
			acc += float64(rowAlpha[k] * (ui - u[j]))
		}
		yi := x[i] - float64(acc*invSqrtS[i])
		y[i] = yi
		c += float64(yi * p[i])
	}
	// y ← y − c·p; signed = x·y; ‖y‖².
	negC := -c
	var sq float64
	for i := range y {
		yi := y[i] + float64(negC*p[i])
		y[i] = yi
		signed += float64(x[i] * yi)
		sq += float64(yi * yi)
	}
	it.x, it.y = y, x
	norm = math.Sqrt(sq)
	if norm == 0 {
		return 0, signed
	}
	// x ← y/‖y‖ and the next u.
	scale := 1 / norm
	for i := range y {
		xi := y[i] * scale
		y[i] = xi
		u[i] = xi * invSqrtS[i]
	}
	return norm, signed
}

// BetaOpt returns the optimal SOS parameter β_opt = 2/(1+√(1−λ²)) for a
// second eigenvalue magnitude λ ∈ [0, 1).
func BetaOpt(lambda float64) (float64, error) {
	if lambda < 0 || lambda >= 1 || math.IsNaN(lambda) {
		return 0, fmt.Errorf("spectral: BetaOpt: lambda=%g outside [0,1)", lambda)
	}
	return 2 / (1 + math.Sqrt(1-float64(lambda*lambda))), nil
}

// FOSRounds returns the continuous-FOS balancing-time scale log(Kn)/(1−λ)
// used throughout the paper's statements, for an initial discrepancy K.
func FOSRounds(k float64, n int, lambda float64) float64 {
	return math.Log(k*float64(n)) / (1 - lambda)
}

// SOSRounds returns the continuous-SOS balancing-time scale
// log(Kn)/√(1−λ).
func SOSRounds(k float64, n int, lambda float64) float64 {
	return math.Log(k*float64(n)) / math.Sqrt(1-lambda)
}

// AnalyticTorus2DLambda returns the exact second eigenvalue (in magnitude)
// of the max-degree-rule diffusion matrix on the w×h torus with w, h >= 3:
// eigenvalues are 1 − (2/5)(2 − cos(2πk₁/w) − cos(2πk₂/h)). The w + h
// cosines are computed once, not once per eigenvalue.
func AnalyticTorus2DLambda(w, h int) (float64, error) {
	if w < 3 || h < 3 {
		return 0, fmt.Errorf("graph: AnalyticTorus2DLambda(%d,%d) needs sides >= 3: %w", w, h, graph.ErrBadParameter)
	}
	cosW, cosH := cosines(w), cosines(h)
	lambda := 0.0
	for k1 := 0; k1 < w; k1++ {
		for k2 := 0; k2 < h; k2++ {
			if k1 == 0 && k2 == 0 {
				continue
			}
			mu := 1 - float64((2.0/5.0)*(2-cosW[k1]-cosH[k2]))
			if a := math.Abs(mu); a > lambda {
				lambda = a
			}
		}
	}
	return lambda, nil
}

// cosines returns cos(2πk/n) for k = 0, …, n−1.
func cosines(n int) []float64 {
	c := make([]float64, n)
	for k := range c {
		c[k] = math.Cos(2 * math.Pi * float64(k) / float64(n))
	}
	return c
}

// AnalyticHypercubeLambda returns the exact second eigenvalue (in magnitude)
// for the dim-dimensional hypercube under the max-degree rule α = 1/(d+1):
// the spectrum is {1 − 2k/(d+1)} and λ = (d−1)/(d+1).
func AnalyticHypercubeLambda(dim int) (float64, error) {
	if dim < 2 {
		return 0, fmt.Errorf("graph: AnalyticHypercubeLambda(%d): %w", dim, graph.ErrBadParameter)
	}
	d := float64(dim)
	return (d - 1) / (d + 1), nil
}

// AnalyticCycleLambda returns the exact λ for the n-cycle under the
// max-degree rule α = 1/3: eigenvalues 1 − (2/3)(1 − cos(2πk/n)).
func AnalyticCycleLambda(n int) (float64, error) {
	if n < 3 {
		return 0, fmt.Errorf("graph: AnalyticCycleLambda(%d): %w", n, graph.ErrBadParameter)
	}
	lambda := 0.0
	for k := 1; k < n; k++ {
		mu := 1 - float64((2.0/3.0)*(1-math.Cos(2*math.Pi*float64(k)/float64(n))))
		if a := math.Abs(mu); a > lambda {
			lambda = a
		}
	}
	return lambda, nil
}

// AnalyticCompleteLambda returns λ for K_n under the max-degree rule
// α = 1/n: M = J/n has spectrum {1, 0, …, 0}, so λ = 0.
func AnalyticCompleteLambda(n int) (float64, error) {
	if n < 2 {
		return 0, fmt.Errorf("graph: AnalyticCompleteLambda(%d): %w", n, graph.ErrBadParameter)
	}
	return 0, nil
}
