// Package linalg provides the dense linear algebra needed by the SPICE
// engine: LU factorization with partial pivoting and triangular solves.
// Standard-cell circuits have a few dozen unknowns, so a dense solver is the
// right tool.
package linalg

import (
	"errors"
	"math"
)

// ErrSingular is returned when factorization encounters an (effectively)
// singular matrix.
var ErrSingular = errors.New("linalg: singular matrix")

// Matrix is a dense row-major square matrix.
type Matrix struct {
	N int
	A []float64
}

// NewMatrix returns a zeroed n x n matrix.
func NewMatrix(n int) *Matrix {
	return &Matrix{N: n, A: make([]float64, n*n)}
}

// At returns element (i, j).
func (m *Matrix) At(i, j int) float64 { return m.A[i*m.N+j] }

// Set sets element (i, j).
func (m *Matrix) Set(i, j int, v float64) { m.A[i*m.N+j] = v }

// Add adds v to element (i, j).
func (m *Matrix) Add(i, j int, v float64) { m.A[i*m.N+j] += v }

// Zero clears the matrix in place.
func (m *Matrix) Zero() {
	for i := range m.A {
		m.A[i] = 0
	}
}

// LU holds an LU factorization with partial pivoting. Its storage is sized
// once by NewLU and refilled by every Refactor, so a solver that factors a
// fresh matrix of the same size each Newton iteration allocates nothing.
type LU struct {
	n   int
	lu  []float64
	piv []int
}

// NewLU returns factorization storage for n x n matrices.
func NewLU(n int) *LU {
	return &LU{n: n, lu: make([]float64, n*n), piv: make([]int, n)}
}

// Refactor computes the LU factorization of m, which must be f's size, into
// f's own storage. m is not modified.
func (f *LU) Refactor(m *Matrix) error {
	n := f.n
	a := f.lu
	copy(a, m.A)
	for i := range f.piv {
		f.piv[i] = i
	}
	for k := 0; k < n; k++ {
		// Pivot search.
		p := k
		max := math.Abs(a[k*n+k])
		for i := k + 1; i < n; i++ {
			if v := math.Abs(a[i*n+k]); v > max {
				max, p = v, i
			}
		}
		if max < 1e-300 {
			return ErrSingular
		}
		if p != k {
			for j := 0; j < n; j++ {
				a[k*n+j], a[p*n+j] = a[p*n+j], a[k*n+j]
			}
			f.piv[k], f.piv[p] = f.piv[p], f.piv[k]
		}
		pivot := a[k*n+k]
		for i := k + 1; i < n; i++ {
			l := a[i*n+k] / pivot
			a[i*n+k] = l
			if l == 0 {
				continue
			}
			for j := k + 1; j < n; j++ {
				a[i*n+j] -= l * a[k*n+j]
			}
		}
	}
	return nil
}

// SolveInto solves A*x = b into x using the factorization. b is not
// modified and must not alias x.
func (f *LU) SolveInto(x, b []float64) {
	n := f.n
	for i := 0; i < n; i++ {
		x[i] = b[f.piv[i]]
	}
	// Forward substitution (unit lower triangular).
	for i := 1; i < n; i++ {
		s := x[i]
		for j := 0; j < i; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s
	}
	// Back substitution.
	for i := n - 1; i >= 0; i-- {
		s := x[i]
		for j := i + 1; j < n; j++ {
			s -= f.lu[i*n+j] * x[j]
		}
		x[i] = s / f.lu[i*n+i]
	}
}

// MaxAbsDiff returns the infinity-norm distance between two vectors of equal
// length.
func MaxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}
