// Package linalg provides the small dense linear-algebra kernels the
// moments-sketch estimation pipeline depends on: Cholesky and LU solves for
// Newton steps, symmetric eigensolvers — tridiagonal QL for the
// eigenvalues-only condition numbers, Jacobi where eigenvectors are wanted
// (Gram-matrix pseudo-inverses) — and Vandermonde solves for quadrature
// weights.
//
// Matrices in this package are small (rarely larger than 25x25, bounded by
// the sketch order), so the implementations favour numerical robustness and
// clarity over blocking or cache tricks.
package linalg

import (
	"errors"
	"fmt"
	"math"
)

// Dense is a row-major dense matrix.
//
// The zero value is an empty matrix; use NewDense to allocate.
type Dense struct {
	Rows, Cols int
	Data       []float64 // len == Rows*Cols, row-major
}

// NewDense allocates a Rows x Cols zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic("linalg: negative dimension")
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// NewDenseFrom builds a matrix from a slice of rows. All rows must have the
// same length.
func NewDenseFrom(rows [][]float64) *Dense {
	r := len(rows)
	if r == 0 {
		return NewDense(0, 0)
	}
	c := len(rows[0])
	m := NewDense(r, c)
	for i, row := range rows {
		if len(row) != c {
			panic("linalg: ragged rows")
		}
		copy(m.Data[i*c:(i+1)*c], row)
	}
	return m
}

// At returns the element at row i, column j.
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns the element at row i, column j.
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// Clone returns a deep copy of the matrix.
func (m *Dense) Clone() *Dense {
	out := NewDense(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// MulVec computes y = M x. The destination slice is allocated if nil.
func (m *Dense) MulVec(x []float64, y []float64) []float64 {
	if len(x) != m.Cols {
		panic(fmt.Sprintf("linalg: MulVec dimension mismatch %d != %d", len(x), m.Cols))
	}
	if y == nil {
		y = make([]float64, m.Rows)
	}
	for i := 0; i < m.Rows; i++ {
		s := 0.0
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			s += v * x[j]
		}
		y[i] = s
	}
	return y
}

// TMulVec computes y = Mᵀ x.
func (m *Dense) TMulVec(x []float64, y []float64) []float64 {
	if len(x) != m.Rows {
		panic("linalg: TMulVec dimension mismatch")
	}
	if y == nil {
		y = make([]float64, m.Cols)
	}
	for j := range y {
		y[j] = 0
	}
	for i := 0; i < m.Rows; i++ {
		xi := x[i]
		row := m.Data[i*m.Cols : (i+1)*m.Cols]
		for j, v := range row {
			y[j] += v * xi
		}
	}
	return y
}

// Mul computes C = A B.
func Mul(a, b *Dense) *Dense {
	if a.Cols != b.Rows {
		panic("linalg: Mul dimension mismatch")
	}
	c := NewDense(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for k := 0; k < a.Cols; k++ {
			aik := a.At(i, k)
			if aik == 0 {
				continue
			}
			for j := 0; j < b.Cols; j++ {
				c.Data[i*c.Cols+j] += aik * b.At(k, j)
			}
		}
	}
	return c
}

// Dot returns the inner product of two equal-length vectors.
func Dot(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("linalg: Dot length mismatch")
	}
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Norm2 returns the Euclidean norm of v.
func Norm2(v []float64) float64 {
	// Scaled accumulation avoids overflow for large components.
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	if mx == 0 {
		return 0
	}
	s := 0.0
	for _, x := range v {
		r := x / mx
		s += r * r
	}
	return mx * math.Sqrt(s)
}

// NormInf returns the maximum absolute component of v.
func NormInf(v []float64) float64 {
	mx := 0.0
	for _, x := range v {
		if a := math.Abs(x); a > mx {
			mx = a
		}
	}
	return mx
}

// AXPY computes y += alpha*x in place.
func AXPY(alpha float64, x, y []float64) {
	if len(x) != len(y) {
		panic("linalg: AXPY length mismatch")
	}
	for i := range x {
		y[i] += alpha * x[i]
	}
}

// ErrSingular is returned when a factorization or solve encounters a matrix
// that is singular (or not positive definite, for Cholesky) to working
// precision.
var ErrSingular = errors.New("linalg: matrix is singular to working precision")
