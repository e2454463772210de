package dense

import (
	"fmt"

	"github.com/htc-align/htc/internal/par"
)

// Mul returns the matrix product a·b. It panics if the inner dimensions do
// not match. The computation is parallelised across rows of the result.
func Mul(a, b *Matrix) *Matrix {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("dense: Mul dimension mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Cols)
	MulInto(c, a, b, 0)
	return c
}

// MulInto computes c = a·b, overwriting c, fanning out across at most
// `workers` goroutines (≤ 0 = GOMAXPROCS). The shapes must be compatible.
//
// Accumulation-order contract: every c[i][j] starts at +0 and adds
// a[i][l]·b[l][j] for ascending l, skipping the terms whose a[i][l] is ±0.
// The kernel takes a row's non-zero a[i][l] four at a time and keeps
// c[i][j] in a register across those four adds, which changes neither the
// terms nor their order, so the result is exactly the one-term-at-a-time
// loop's. Rows of c are written by exactly one goroutine each, so the
// result is bit-identical for every worker count.
func MulInto(c, a, b *Matrix, workers int) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulInto dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	c.Zero()
	par.For(workers, a.Rows, k*n, func(start, end int) {
		for i := start; i < end; i++ {
			addTerms(c.Data[i*n:i*n+n], b, a.Data[i*k:], 1, 0, k)
		}
	})
}

// MulAT returns aᵀ·b for a (m×k) and b (m×n), producing a k×n matrix.
func MulAT(a, b *Matrix) *Matrix {
	c := New(a.Cols, b.Cols)
	MulATInto(c, a, b, 0)
	return c
}

// MulATInto computes c = aᵀ·b, overwriting c.
func MulATInto(c, a, b *Matrix, workers int) {
	c.Zero()
	MulATAccum(c, a, b, workers)
}

// MulATAccum accumulates c += aᵀ·b for a (m×k) and b (m×n) without any
// temporary — the gradient kernel of training, where every layer adds its
// weight gradient into a shared buffer.
//
// Accumulation-order contract: every c[l][j] adds a[i][l]·b[i][j] onto its
// current value for ascending i, skipping the terms whose a[i][l] is ±0.
// As in MulInto, the non-zero a[i][l] are taken four at a time with c[l][j]
// held in a register across the four adds, so the result is exactly the
// one-term-at-a-time loop's.
//
// Parallelisation is over output rows; each output row l gathers the
// strided column l of a. For the small k used by embedding dimensions this
// is cache-acceptable and race-free, and bit-identical for every worker
// count.
func MulATAccum(c, a, b *Matrix, workers int) {
	if a.Rows != b.Rows || c.Rows != a.Cols || c.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulATAccum dimension mismatch c=%dx%d a=%dx%d ᵀ· b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k, n := a.Cols, b.Cols
	par.For(workers, k, a.Rows*n, func(start, end int) {
		// Rows of a and b are taken in blocks of about mulBTTile entries,
		// so a block stays in cache across all the worker's output rows.
		rows := max(mulBTTile/(k+n), 8)
		for it := 0; it < a.Rows; it += rows {
			iEnd := min(it+rows, a.Rows)
			for l := start; l < end; l++ {
				addTerms(c.Data[l*n:l*n+n], b, a.Data[l:], k, it, iEnd)
			}
		}
	})
}

// addTerms adds x[r·stride]·b[r] onto c for ascending r in [from, to),
// skipping the terms whose x[r·stride] is ±0. The non-zero terms are
// gathered four at a time into axpy4, the rest go one by one into axpy1;
// either way each c[j] sees the same terms in the same order.
// len(c) must be b.Cols.
func addTerms(c []float64, b *Matrix, x []float64, stride, from, to int) {
	var rs [4]int
	var xs [4]float64
	m := 0
	for r := from; r < to; r++ {
		xv := x[r*stride]
		if xv == 0 {
			continue
		}
		rs[m], xs[m] = r, xv
		if m++; m == 4 {
			axpy4(c, b, rs, xs)
			m = 0
		}
	}
	for t := range m {
		axpy1(c, b, rs[t], xs[t])
	}
}

// axpy4 adds x[0]·b[r[0]], …, x[3]·b[r[3]] onto c, one term at a time in
// that order, with each c[j] held in a register across the four adds.
// len(c) must be b.Cols.
func axpy4(c []float64, b *Matrix, r [4]int, x [4]float64) {
	n := len(c)
	b0 := b.Data[r[0]*n : r[0]*n+n]
	b1 := b.Data[r[1]*n : r[1]*n+n][:len(b0)]
	b2 := b.Data[r[2]*n : r[2]*n+n][:len(b0)]
	b3 := b.Data[r[3]*n : r[3]*n+n][:len(b0)]
	c = c[:len(b0)]
	x0, x1, x2, x3 := x[0], x[1], x[2], x[3]
	for j, y0 := range b0 {
		s := c[j]
		s += x0 * y0
		s += x1 * b1[j]
		s += x2 * b2[j]
		s += x3 * b3[j]
		c[j] = s
	}
}

// axpy1 adds x·b[r] onto c. len(c) must be b.Cols.
func axpy1(c []float64, b *Matrix, r int, x float64) {
	n := len(c)
	br := b.Data[r*n : r*n+n]
	c = c[:len(br)]
	for j, y := range br {
		c[j] += x * y
	}
}

// MulBT returns a·bᵀ for a (m×k) and b (n×k), producing an m×n matrix.
// Both operands are traversed along rows, which makes this the preferred
// kernel for similarity matrices between embedding sets.
func MulBT(a, b *Matrix) *Matrix {
	if a.Cols != b.Cols {
		panic(fmt.Sprintf("dense: MulBT dimension mismatch %dx%d · %dx%dᵀ", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	c := New(a.Rows, b.Rows)
	MulBTInto(c, a, b, 0)
	return c
}

// mulBTTile bounds the number of b entries (rows × k) held per cache
// block: 16384 float64s ≈ 128 KiB, sized to sit in L2 while a row of a
// stays in L1.
const mulBTTile = 1 << 14

// MulBTInto computes c = a·bᵀ, overwriting c. The kernel is cache-blocked:
// rows of b are processed in tiles small enough to stay resident in cache
// while the worker streams its rows of a over them, so b is fetched from
// memory once per tile instead of once per row of a. Within a tile it is
// register-blocked: 2 rows of a against 4 rows of b, eight independent
// dot products sharing each loaded operand, with the scalar loop for the
// ragged edges.
//
// Accumulation-order contract: every c[i][j] is one sequential dot product
// starting at +0 and adding a[i][l]·b[j][l] for ascending l, with no terms
// skipped. Neither the tiles nor the register block change the terms or
// their order, so results are bit-identical for every worker count and
// tile size.
func MulBTInto(c, a, b *Matrix, workers int) {
	if a.Cols != b.Cols || c.Rows != a.Rows || c.Cols != b.Rows {
		panic(fmt.Sprintf("dense: MulBTInto dimension mismatch c=%dx%d a=%dx%d b=%dx%d",
			c.Rows, c.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	k := a.Cols
	if k == 0 {
		c.Zero()
		return
	}
	tile := mulBTTile / k
	if tile < 8 {
		tile = 8
	}
	par.For(workers, a.Rows, b.Rows*k, func(start, end int) {
		n := c.Cols
		for jt := 0; jt < b.Rows; jt += tile {
			jEnd := min(jt+tile, b.Rows)
			i := start
			for ; i+2 <= end; i += 2 {
				a0 := a.Data[i*k : i*k+k]
				a1 := a.Data[i*k+k : i*k+2*k][:len(a0)]
				c0 := c.Data[i*n : i*n+n]
				c1 := c.Data[i*n+n : i*n+2*n]
				j := jt
				for ; j+4 <= jEnd; j += 4 {
					b0 := b.Data[j*k : j*k+k][:len(a0)]
					b1 := b.Data[j*k+k : j*k+2*k][:len(a0)]
					b2 := b.Data[j*k+2*k : j*k+3*k][:len(a0)]
					b3 := b.Data[j*k+3*k : j*k+4*k][:len(a0)]
					var s00, s01, s02, s03, s10, s11, s12, s13 float64
					for l, x0 := range a0 {
						x1 := a1[l]
						y0, y1, y2, y3 := b0[l], b1[l], b2[l], b3[l]
						s00 += x0 * y0
						s01 += x0 * y1
						s02 += x0 * y2
						s03 += x0 * y3
						s10 += x1 * y0
						s11 += x1 * y1
						s12 += x1 * y2
						s13 += x1 * y3
					}
					c0[j], c0[j+1], c0[j+2], c0[j+3] = s00, s01, s02, s03
					c1[j], c1[j+1], c1[j+2], c1[j+3] = s10, s11, s12, s13
				}
				for ; j < jEnd; j++ {
					c0[j] = dot(a0, b.Data[j*k:j*k+k])
					c1[j] = dot(a1, b.Data[j*k:j*k+k])
				}
			}
			for ; i < end; i++ {
				ai := a.Data[i*k : i*k+k]
				ci := c.Data[i*n : i*n+n]
				for j := jt; j < jEnd; j++ {
					ci[j] = dot(ai, b.Data[j*k:j*k+k])
				}
			}
		}
	})
}

// dot is the sequential dot product x·y for ascending index, len(y) ≥ len(x).
func dot(x, y []float64) float64 {
	y = y[:len(x)]
	var s float64
	for l, xv := range x {
		s += xv * y[l]
	}
	return s
}

// MulVec returns a·x for a (m×n) and a vector x of length n.
func MulVec(a *Matrix, x []float64) []float64 {
	if a.Cols != len(x) {
		panic(fmt.Sprintf("dense: MulVec dimension mismatch %dx%d · %d", a.Rows, a.Cols, len(x)))
	}
	y := make([]float64, a.Rows)
	par.For(0, a.Rows, a.Cols, func(start, end int) {
		for i := start; i < end; i++ {
			row := a.Row(i)
			var s float64
			for j, v := range row {
				s += v * x[j]
			}
			y[i] = s
		}
	})
	return y
}
