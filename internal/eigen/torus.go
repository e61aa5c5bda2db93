package eigen

import (
	"fmt"
	"math"
	"sort"
)

// TorusBasis is the exact real orthonormal eigenbasis of the diffusion
// matrix M = I − (1/5)L on the w×h torus (max-degree rule, both sides >= 3,
// so the torus is 4-regular and α = 1/5 on every edge).
//
// The eigenvectors are tensor products of the 1-D real Fourier modes
// φ_k(x) ∈ {1/√w, √(2/w)·cos(2πkx/w), √(2/w)·sin(2πkx/w), (±1)^x/√w} and
// the eigenvalue of mode (k₁, k₂) is
//
//	μ(k₁,k₂) = 1 − (2/5)·(2 − cos(2πk₁/w) − cos(2πk₂/h)).
//
// Because the basis is separable, projecting a load vector on all n = w·h
// eigenvectors costs O(w·h·(w+h)) — this is what replaces the paper's dense
// LAPACK solve of V·a = x(t) and makes per-round coefficient tracking cheap
// at the 100×100 scale of Figures 7 and 15.
type TorusBasis struct {
	w, h int
	// rowModes[k][x] is φ_k(x) for the width dimension; colModes for height.
	rowModes [][]float64
	colModes [][]float64
	// eigenvalue of the separable mode pair (kx, ky).
	mu [][]float64
	// order lists all (kx, ky) mode pairs sorted by descending eigenvalue
	// with deterministic tie-breaking, so "a_4" is well defined.
	order []TorusMode
	rank  map[[2]int]int // mode -> 1-based position in order
	// scratch for the separable transform: tmp[y][k1]
	tmp [][]float64
}

// TorusMode identifies one eigenvector of the torus basis.
type TorusMode struct {
	// KX and KY are the 1-D mode indices (0 <= KX < w, 0 <= KY < h).
	KX, KY int
	// Mu is the eigenvalue μ(KX, KY) of the diffusion matrix.
	Mu float64
}

// NewTorusBasis builds the basis for the w×h torus (w, h >= 3).
func NewTorusBasis(w, h int) (*TorusBasis, error) {
	if w < 3 || h < 3 {
		return nil, fmt.Errorf("eigen: NewTorusBasis(%d,%d) needs sides >= 3", w, h)
	}
	b := &TorusBasis{
		w:        w,
		h:        h,
		rowModes: realFourierModes(w),
		colModes: realFourierModes(h),
	}
	b.mu = make([][]float64, w)
	for kx := 0; kx < w; kx++ {
		b.mu[kx] = make([]float64, h)
		for ky := 0; ky < h; ky++ {
			// float64(...) rounds the product, so arm64 does not fuse it
			// into a multiply-add (make fma-check); the transforms below
			// round theirs the same way.
			b.mu[kx][ky] = 1 - float64((2.0/5.0)*(2-math.Cos(2*math.Pi*float64(modeFreq(kx, w))/float64(w))-
				math.Cos(2*math.Pi*float64(modeFreq(ky, h))/float64(h))))
		}
	}
	b.order = make([]TorusMode, 0, w*h)
	for kx := 0; kx < w; kx++ {
		for ky := 0; ky < h; ky++ {
			b.order = append(b.order, TorusMode{KX: kx, KY: ky, Mu: b.mu[kx][ky]})
		}
	}
	sort.SliceStable(b.order, func(i, j int) bool {
		a, c := b.order[i], b.order[j]
		//lint:allow floateq exact tie-break keeps the mode order a deterministic total order
		if a.Mu != c.Mu {
			return a.Mu > c.Mu
		}
		if a.KX != c.KX {
			return a.KX < c.KX
		}
		return a.KY < c.KY
	})
	b.rank = make(map[[2]int]int, w*h)
	for pos, m := range b.order {
		b.rank[[2]int{m.KX, m.KY}] = pos + 1
	}
	b.tmp = make([][]float64, h)
	for y := range b.tmp {
		b.tmp[y] = make([]float64, w)
	}
	return b, nil
}

// modeFreq maps the real-basis mode index k to its angular frequency: mode
// 0 is constant; modes 2m-1 and 2m (cos/sin pairs) have frequency m; for
// even side length the last mode is the alternating one with frequency n/2.
func modeFreq(k, n int) int {
	if k == 0 {
		return 0
	}
	return (k + 1) / 2
}

// realFourierModes returns the n orthonormal real Fourier modes of Z_n in
// the index convention of modeFreq.
func realFourierModes(n int) [][]float64 {
	modes := make([][]float64, n)
	inv := 1 / math.Sqrt(float64(n))
	amp := math.Sqrt(2 / float64(n))
	for k := 0; k < n; k++ {
		v := make([]float64, n)
		switch {
		case k == 0:
			for x := range v {
				v[x] = inv
			}
		case n%2 == 0 && k == n-1:
			// Alternating mode at the Nyquist frequency n/2.
			for x := range v {
				if x%2 == 0 {
					v[x] = inv
				} else {
					v[x] = -inv
				}
			}
		default:
			m := (k + 1) / 2
			if k%2 == 1 { // cosine mode
				for x := range v {
					v[x] = amp * math.Cos(2*math.Pi*float64(m)*float64(x)/float64(n))
				}
			} else { // sine mode
				for x := range v {
					v[x] = amp * math.Sin(2*math.Pi*float64(m)*float64(x)/float64(n))
				}
			}
		}
		modes[k] = v
	}
	return modes
}

// N returns the number of nodes w·h.
func (b *TorusBasis) N() int { return b.w * b.h }

// Modes returns all modes sorted by descending eigenvalue (position 0 is
// the constant mode with μ = 1).
func (b *TorusBasis) Modes() []TorusMode { return b.order }

// Mu returns the eigenvalue of mode (kx, ky).
func (b *TorusBasis) Mu(kx, ky int) float64 { return b.mu[kx][ky] }

// Rank returns the 1-based position of mode (kx, ky) in the descending
// eigenvalue order (the paper's "a_i" index).
func (b *TorusBasis) Rank(kx, ky int) int { return b.rank[[2]int{kx, ky}] }

// Coefficients projects the load vector x (row-major, id = y*w + x) onto
// every eigenvector. Result coeffs[kx][ky] = <v_(kx,ky), x>; the slice is
// freshly allocated per call.
func (b *TorusBasis) Coefficients(x []float64) ([][]float64, error) {
	if len(x) != b.w*b.h {
		return nil, fmt.Errorf("eigen: load vector length %d != %d", len(x), b.w*b.h)
	}
	// Row transform: tmp[y][kx] = Σ_x load[y*w+x]·φ_kx(x).
	for y := 0; y < b.h; y++ {
		row := x[y*b.w : (y+1)*b.w]
		for kx := 0; kx < b.w; kx++ {
			mode := b.rowModes[kx]
			var s float64
			for xx, v := range row {
				s += float64(v * mode[xx])
			}
			b.tmp[y][kx] = s
		}
	}
	// Column transform: coeffs[kx][ky] = Σ_y tmp[y][kx]·ψ_ky(y).
	coeffs := make([][]float64, b.w)
	for kx := 0; kx < b.w; kx++ {
		coeffs[kx] = make([]float64, b.h)
	}
	for ky := 0; ky < b.h; ky++ {
		mode := b.colModes[ky]
		for y := 0; y < b.h; y++ {
			f := mode[y]
			if f == 0 {
				continue
			}
			for kx := 0; kx < b.w; kx++ {
				coeffs[kx][ky] += float64(b.tmp[y][kx] * f)
			}
		}
	}
	return coeffs, nil
}

// ImpactReport summarizes one round of the eigenvector-impact analysis
// (Figure 7): the leading non-constant coefficient, its mode and rank, and
// the coefficient at rank 4 (the paper's a₄).
type ImpactReport struct {
	// MaxAbsCoeff is max_{i>=2} |a_i| over all non-constant modes.
	MaxAbsCoeff float64
	// Leading is the mode achieving MaxAbsCoeff.
	Leading TorusMode
	// LeadingRank is the 1-based eigenvalue rank of Leading.
	LeadingRank int
	// A4 is the coefficient of the rank-4 eigenvector.
	A4 float64
}

// Impact computes the ImpactReport for a load vector.
func (b *TorusBasis) Impact(x []float64) (ImpactReport, error) {
	coeffs, err := b.Coefficients(x)
	if err != nil {
		return ImpactReport{}, err
	}
	rep := ImpactReport{LeadingRank: -1}
	for pos, m := range b.order {
		if pos == 0 {
			continue // constant mode carries the total load, not imbalance
		}
		c := coeffs[m.KX][m.KY]
		if pos+1 == 4 {
			rep.A4 = c
		}
		if a := math.Abs(c); a > rep.MaxAbsCoeff {
			rep.MaxAbsCoeff = a
			rep.Leading = m
			rep.LeadingRank = pos + 1
		}
	}
	return rep, nil
}

// Reconstruct builds the load vector Σ coeffs[kx][ky]·v_(kx,ky) — the
// inverse transform, used to verify orthonormality in tests.
func (b *TorusBasis) Reconstruct(coeffs [][]float64) ([]float64, error) {
	if len(coeffs) != b.w {
		return nil, fmt.Errorf("eigen: coefficient matrix has %d rows, want %d", len(coeffs), b.w)
	}
	// tmp2[y][kx] = Σ_ky coeffs[kx][ky]·ψ_ky(y)
	out := make([]float64, b.w*b.h)
	tmp2 := make([][]float64, b.h)
	for y := range tmp2 {
		tmp2[y] = make([]float64, b.w)
	}
	for ky := 0; ky < b.h; ky++ {
		mode := b.colModes[ky]
		for y := 0; y < b.h; y++ {
			f := mode[y]
			if f == 0 {
				continue
			}
			for kx := 0; kx < b.w; kx++ {
				tmp2[y][kx] += float64(coeffs[kx][ky] * f)
			}
		}
	}
	for y := 0; y < b.h; y++ {
		for xx := 0; xx < b.w; xx++ {
			var s float64
			for kx := 0; kx < b.w; kx++ {
				s += float64(tmp2[y][kx] * b.rowModes[kx][xx])
			}
			out[y*b.w+xx] = s
		}
	}
	return out, nil
}
