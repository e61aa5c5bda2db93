// Package numeric provides small dense vector and matrix helpers shared by
// the diffusion, spectral and divergence packages.
//
// The package deliberately stays tiny: the simulation hot paths in
// internal/core operate on raw slices with hand-rolled loops, and only the
// analysis code (eigensolvers, Q(t) recursions, deviation identities) needs
// general dense linear algebra. Everything here is plain float64 with no
// hidden allocation on the fast paths.
package numeric

import (
	"errors"
	"fmt"
	"math"
)

// ErrDimensionMismatch is returned when operands have incompatible shapes.
var ErrDimensionMismatch = errors.New("numeric: dimension mismatch")

// Dot returns the inner product of a and b. It panics if lengths differ;
// vector lengths are structural program invariants, not runtime inputs.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic(fmt.Sprintf("numeric: Dot length mismatch %d != %d", len(a), len(b)))
	}
	var s float64
	for i, v := range a {
		s += float64(v * b[i]) // no fused multiply-add on arm64 (make fma-check)
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	return math.Sqrt(Dot(v, v))
}

// NormInf returns the maximum absolute entry of v (0 for an empty vector).
func NormInf(v []float64) float64 {
	var m float64
	for _, x := range v {
		if a := math.Abs(x); a > m {
			m = a
		}
	}
	return m
}

// Sum returns the sum of the entries of v.
func Sum(v []float64) float64 {
	var s float64
	for _, x := range v {
		s += x
	}
	return s
}

// SumInt64 returns the sum of the entries of v. It does not guard against
// overflow; callers in this module keep total load far below 2^62.
func SumInt64(v []int64) int64 {
	var s int64
	for _, x := range v {
		s += x
	}
	return s
}

// AXPY computes y += a*x in place.
func AXPY(a float64, x, y []float64) {
	if len(x) != len(y) {
		panic(fmt.Sprintf("numeric: AXPY length mismatch %d != %d", len(x), len(y)))
	}
	for i, v := range x {
		y[i] += float64(a * v) // no fused multiply-add on arm64 (make fma-check)
	}
}

// Scale multiplies every entry of v by a, in place.
func Scale(a float64, v []float64) {
	for i := range v {
		v[i] *= a
	}
}

// Normalize scales v to unit Euclidean norm and returns the original norm.
// A zero vector is left unchanged and 0 is returned.
func Normalize(v []float64) float64 {
	n := Norm2(v)
	if n == 0 {
		return 0
	}
	Scale(1/n, v)
	return n
}

// ToFloat converts an integer load vector to float64, reusing dst when it has
// the right length (a fresh slice is allocated otherwise).
func ToFloat(src []int64, dst []float64) []float64 {
	if len(dst) != len(src) {
		dst = make([]float64, len(src))
	}
	for i, v := range src {
		dst[i] = float64(v)
	}
	return dst
}

// Dense is a dense row-major matrix. It is used only by analysis code
// (eigendecomposition, Q(t) recursions) on small graphs, never on the
// simulation hot path.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len Rows*Cols, row-major
}

// NewDense returns a zero matrix of the given shape.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("numeric: negative matrix dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// Identity returns the n×n identity matrix.
func Identity(n int) *Dense {
	m := NewDense(n, n)
	for i := 0; i < n; i++ {
		m.Set(i, i, 1)
	}
	return m
}

// At returns the (i, j) entry.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the (i, j) entry.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Add increments the (i, j) entry by v.
func (m *Dense) Add(i, j int, v float64) { m.Data[i*m.Cols+j] += v }

// Row returns a view of row i (no copy).
func (m *Dense) Row(i int) []float64 { return m.Data[i*m.Cols : (i+1)*m.Cols] }

// Clone returns a deep copy of m.
func (m *Dense) Clone() *Dense {
	c := NewDense(m.Rows, m.Cols)
	copy(c.Data, m.Data)
	return c
}

// MulVec computes dst = m * v. dst is reused when correctly sized.
func (m *Dense) MulVec(v, dst []float64) ([]float64, error) {
	if len(v) != m.Cols {
		return nil, fmt.Errorf("numeric: MulVec: %w: matrix %dx%d, vector %d",
			ErrDimensionMismatch, m.Rows, m.Cols, len(v))
	}
	if len(dst) != m.Rows {
		dst = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		var s float64
		for j, a := range row {
			s += float64(a * v[j]) // no fused multiply-add on arm64 (make fma-check)
		}
		dst[i] = s
	}
	return dst, nil
}

// Mul computes the product a*b into a freshly allocated matrix.
func Mul(a, b *Dense) (*Dense, error) {
	if a.Cols != b.Rows {
		return nil, fmt.Errorf("numeric: Mul: %w: %dx%d * %dx%d",
			ErrDimensionMismatch, a.Rows, a.Cols, b.Rows, b.Cols)
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		arow := a.Row(i)
		crow := c.Row(i)
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Row(k)
			for j, bv := range brow {
				crow[j] += float64(av * bv) // no fused multiply-add on arm64 (make fma-check)
			}
		}
	}
	return c, nil
}

// AddScaled computes dst = x + alpha*y entrywise over matrices of identical
// shape, returning a new matrix.
func AddScaled(x *Dense, alpha float64, y *Dense) (*Dense, error) {
	if x.Rows != y.Rows || x.Cols != y.Cols {
		return nil, fmt.Errorf("numeric: AddScaled: %w", ErrDimensionMismatch)
	}
	c := NewDense(x.Rows, x.Cols)
	for i, v := range x.Data {
		c.Data[i] = v + float64(alpha*y.Data[i]) // no fused multiply-add on arm64 (make fma-check)
	}
	return c, nil
}

// Transpose returns a new matrix that is the transpose of m.
func (m *Dense) Transpose() *Dense {
	t := NewDense(m.Cols, m.Rows)
	for i := 0; i < m.Rows; i++ {
		for j := 0; j < m.Cols; j++ {
			t.Set(j, i, m.At(i, j))
		}
	}
	return t
}

// MaxAbsDiff returns the largest absolute entrywise difference between a and
// b, which must have identical shape.
func MaxAbsDiff(a, b *Dense) (float64, error) {
	if a.Rows != b.Rows || a.Cols != b.Cols {
		return 0, fmt.Errorf("numeric: MaxAbsDiff: %w", ErrDimensionMismatch)
	}
	var m float64
	for i, v := range a.Data {
		if d := math.Abs(v - b.Data[i]); d > m {
			m = d
		}
	}
	return m, nil
}

// ColumnSums returns the vector of column sums of m.
func (m *Dense) ColumnSums() []float64 {
	sums := make([]float64, m.Cols)
	for i := 0; i < m.Rows; i++ {
		row := m.Row(i)
		for j, v := range row {
			sums[j] += v
		}
	}
	return sums
}

// ApproxEqual reports whether |a-b| <= tol*(1+|a|+|b|), a symmetric mixed
// absolute/relative comparison suitable for iterative solvers.
func ApproxEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Abs(a)+math.Abs(b))
}
