// Package eigen provides the eigendecomposition machinery behind the
// paper's "impact of eigenvectors on load" analysis (metric 4 of
// Section VI, Figures 7 and 15):
//
//   - a dense cyclic Jacobi eigensolver for symmetric matrices, used on
//     small general graphs (the stdlib replacement for the paper's LAPACK
//     dsyev calls), and
//   - the exact Fourier eigenbasis of the 2-D torus diffusion matrix,
//     which makes the 100×100-torus analysis run in O(w·h·(w+h)) per round
//     instead of O(n²), with no external library.
package eigen

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"diffusionlb/internal/numeric"
)

// ErrNotSymmetric is returned when the Jacobi solver is handed a matrix
// that is not (numerically) symmetric.
var ErrNotSymmetric = errors.New("eigen: matrix not symmetric")

// ErrNoConvergence is returned when the sweep budget is exhausted.
var ErrNoConvergence = errors.New("eigen: Jacobi did not converge")

// Decomposition holds the result of a symmetric eigendecomposition:
// A = V diag(λ) Vᵀ with orthonormal columns V[:,k], sorted by descending
// eigenvalue.
type Decomposition struct {
	// Values are the eigenvalues in descending order.
	Values []float64
	// Vectors is the n×n matrix whose column k is the eigenvector for
	// Values[k].
	Vectors *numeric.Dense
}

// Vector returns eigenvector k as a freshly allocated slice.
func (d *Decomposition) Vector(k int) []float64 {
	n := d.Vectors.Rows
	v := make([]float64, n)
	for i := 0; i < n; i++ {
		v[i] = d.Vectors.At(i, k)
	}
	return v
}

// Coefficients solves V·a = x for a by exploiting orthonormality:
// a = Vᵀ·x. This is the linear system the paper solves with LAPACK to
// obtain the per-eigenvector impact coefficients a_i.
func (d *Decomposition) Coefficients(x []float64) ([]float64, error) {
	n := d.Vectors.Rows
	if len(x) != n {
		return nil, fmt.Errorf("eigen: coefficient vector length %d != n=%d", len(x), n)
	}
	a := make([]float64, n)
	for k := 0; k < n; k++ {
		var s float64
		for i := 0; i < n; i++ {
			s += float64(d.Vectors.At(i, k) * x[i]) // no fused multiply-add (make fma-check)
		}
		a[k] = s
	}
	return a, nil
}

// Jacobi computes the full eigendecomposition of the symmetric matrix a
// using cyclic Jacobi rotations. It is exact (to floating point) and
// robust, with O(n³) per sweep; intended for n up to a few hundred. The
// input matrix is not modified.
func Jacobi(a *numeric.Dense, tol float64, maxSweeps int) (*Decomposition, error) {
	n := a.Rows
	if a.Cols != n {
		return nil, fmt.Errorf("eigen: Jacobi needs a square matrix, got %dx%d", n, a.Cols)
	}
	if tol <= 0 {
		tol = 1e-13
	}
	if maxSweeps <= 0 {
		maxSweeps = 64
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if math.Abs(a.At(i, j)-a.At(j, i)) > 1e-9*(1+math.Abs(a.At(i, j))) {
				return nil, fmt.Errorf("%w: a[%d][%d]=%g vs a[%d][%d]=%g",
					ErrNotSymmetric, i, j, a.At(i, j), j, i, a.At(j, i))
			}
		}
	}
	m := a.Clone()
	v := numeric.Identity(n)

	offDiag := func() float64 {
		var s float64
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				s += float64(m.At(i, j) * m.At(i, j))
			}
		}
		return math.Sqrt(2 * s)
	}

	for sweep := 0; sweep < maxSweeps; sweep++ {
		if offDiag() <= tol*float64(n) {
			return finish(m, v), nil
		}
		for p := 0; p < n-1; p++ {
			for q := p + 1; q < n; q++ {
				apq := m.At(p, q)
				if math.Abs(apq) < 1e-300 {
					continue
				}
				app, aqq := m.At(p, p), m.At(q, q)
				// Stable rotation angle computation (Golub & Van Loan).
				// float64(...) rounds each product, so arm64 does not fuse
				// it into a multiply-add (make fma-check).
				theta := (aqq - app) / (2 * apq)
				var t float64
				if theta >= 0 {
					t = 1 / (theta + math.Sqrt(1+float64(theta*theta)))
				} else {
					t = -1 / (-theta + math.Sqrt(1+float64(theta*theta)))
				}
				c := 1 / math.Sqrt(1+float64(t*t))
				s := t * c

				// Apply the rotation G(p,q,θ) on both sides of m and
				// accumulate it into v.
				for k := 0; k < n; k++ {
					mkp, mkq := m.At(k, p), m.At(k, q)
					m.Set(k, p, float64(c*mkp)-float64(s*mkq))
					m.Set(k, q, float64(s*mkp)+float64(c*mkq))
				}
				for k := 0; k < n; k++ {
					mpk, mqk := m.At(p, k), m.At(q, k)
					m.Set(p, k, float64(c*mpk)-float64(s*mqk))
					m.Set(q, k, float64(s*mpk)+float64(c*mqk))
				}
				for k := 0; k < n; k++ {
					vkp, vkq := v.At(k, p), v.At(k, q)
					v.Set(k, p, float64(c*vkp)-float64(s*vkq))
					v.Set(k, q, float64(s*vkp)+float64(c*vkq))
				}
			}
		}
	}
	if offDiag() <= tol*float64(n)*10 {
		return finish(m, v), nil
	}
	return nil, fmt.Errorf("%w after %d sweeps (offdiag=%g)", ErrNoConvergence, maxSweeps, offDiag())
}

// finish extracts sorted eigenpairs from the diagonalized matrix.
func finish(m, v *numeric.Dense) *Decomposition {
	n := m.Rows
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return m.At(order[a], order[a]) > m.At(order[b], order[b])
	})
	vals := make([]float64, n)
	vecs := numeric.NewDense(n, n)
	for k, idx := range order {
		vals[k] = m.At(idx, idx)
		for i := 0; i < n; i++ {
			vecs.Set(i, k, v.At(i, idx))
		}
	}
	return &Decomposition{Values: vals, Vectors: vecs}
}

// SymmetrizedDiffusion builds the symmetric similarity transform
// B = S^{-1/2} M S^{1/2} of a diffusion matrix M given the dense M and the
// speed vector; for homogeneous speeds it returns a copy of M. B has the
// same eigenvalues as M.
func SymmetrizedDiffusion(m *numeric.Dense, speeds []float64) (*numeric.Dense, error) {
	n := m.Rows
	if m.Cols != n {
		return nil, fmt.Errorf("eigen: diffusion matrix must be square, got %dx%d", n, m.Cols)
	}
	if speeds != nil && len(speeds) != n {
		return nil, fmt.Errorf("eigen: %d speeds for n=%d", len(speeds), n)
	}
	b := m.Clone()
	if speeds == nil {
		return b, nil
	}
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			// B = S^{-1/2} M S^{1/2}, so B_ij = M_ij·√s_j/√s_i.
			b.Set(i, j, m.At(i, j)*math.Sqrt(speeds[j])/math.Sqrt(speeds[i]))
		}
	}
	return b, nil
}
