package dense

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"github.com/htc-align/htc/internal/par"
)

// naiveMul is the reference O(n³) product used to validate the parallel
// kernels.
func naiveMul(a, b *Matrix) *Matrix {
	c := New(a.Rows, b.Cols)
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Cols; j++ {
			var s float64
			for k := 0; k < a.Cols; k++ {
				s += a.At(i, k) * b.At(k, j)
			}
			c.Set(i, j, s)
		}
	}
	return c
}

// refMulInto, refMulATAccum and refMulBTInto are the one-term-at-a-time
// loops the register-blocked kernels replaced, kept verbatim as the
// bit-identity reference: every output cell must see the same terms in the
// same order with the same zero skips.
func refMulInto(c, a, b *Matrix, workers int) {
	k, n := a.Cols, b.Cols
	c.Zero()
	par.For(workers, a.Rows, k*n, func(start, end int) {
		for i := start; i < end; i++ {
			ci := c.Data[i*n : i*n+n]
			ai := a.Data[i*k : i*k+k]
			for l, av := range ai {
				if av == 0 {
					continue
				}
				bl := b.Data[l*n : l*n+n]
				for j, bv := range bl {
					ci[j] += av * bv
				}
			}
		}
	})
}

func refMulATAccum(c, a, b *Matrix, workers int) {
	k, n := a.Cols, b.Cols
	par.For(workers, k, a.Rows*n, func(start, end int) {
		for l := start; l < end; l++ {
			cl := c.Data[l*n : l*n+n]
			for i := 0; i < a.Rows; i++ {
				av := a.Data[i*k+l]
				if av == 0 {
					continue
				}
				bi := b.Data[i*n : i*n+n]
				for j, bv := range bi {
					cl[j] += av * bv
				}
			}
		}
	})
}

func refMulBTInto(c, a, b *Matrix, workers int) {
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
		for jt := 0; jt < b.Rows; jt += tile {
			jEnd := jt + tile
			if jEnd > b.Rows {
				jEnd = b.Rows
			}
			for i := start; i < end; i++ {
				ai := a.Data[i*k : i*k+k]
				ci := c.Data[i*c.Cols : i*c.Cols+c.Cols]
				for j := jt; j < jEnd; j++ {
					bj := b.Data[j*k : j*k+k]
					var s float64
					for l, av := range ai {
						s += av * bj[l]
					}
					ci[j] = s
				}
			}
		}
	})
}

// Ragged outer sizes (m, n) and inner sizes (k) the kernels are checked
// bit-for-bit on: below, at and past the 2×4 register tile and the
// four-term groups.
var (
	raggedOuter = []int{1, 2, 3, 5, 7, 257}
	raggedInner = []int{0, 1, 3, 5, 64, 128}
)

// zeroedOperand returns a random r×c matrix in which about a fifth of the
// entries are +0 and a tenth -0, so the zero skips are exercised.
func zeroedOperand(r, c int, rng *rand.Rand) *Matrix {
	m := randomMatrix(r, c, rng)
	for i := range m.Data {
		switch u := rng.Float64(); {
		case u < 0.2:
			m.Data[i] = 0
		case u < 0.3:
			m.Data[i] = math.Copysign(0, -1)
		}
	}
	return m
}

// specials are placed in b facing zeros of a: a skipped term never
// reaches them, a kept one turns the cell into NaN.
var specials = []float64{math.Inf(1), math.Inf(-1), math.NaN()}

// checkMatchesReference runs kernel with 1 and 3 workers on every ragged
// (m, k, n) and requires each output bit to equal ref's with 1 worker.
// operands builds the starting c and the inputs; c's starting values are
// stale garbage for the overwriting kernels and the addend for MulATAccum.
func checkMatchesReference(t *testing.T, kernel, ref func(c, a, b *Matrix, workers int),
	operands func(m, k, n int, rng *rand.Rand) (c, a, b *Matrix)) {
	t.Helper()
	rng := rand.New(rand.NewSource(21))
	for _, m := range raggedOuter {
		for _, n := range raggedOuter {
			for _, k := range raggedInner {
				c, a, b := operands(m, k, n, rng)
				want := c.Clone()
				ref(want, a, b, 1)
				for _, w := range []int{1, 3} {
					got := c.Clone()
					kernel(got, a, b, w)
					for x := range want.Data {
						if math.Float64bits(got.Data[x]) != math.Float64bits(want.Data[x]) {
							t.Fatalf("m=%d k=%d n=%d workers=%d: cell %d = %v, reference %v",
								m, k, n, w, x, got.Data[x], want.Data[x])
						}
					}
				}
			}
		}
	}
}

func TestMulSmall(t *testing.T) {
	a := FromRows([][]float64{{1, 2}, {3, 4}})
	b := FromRows([][]float64{{5, 6}, {7, 8}})
	c := Mul(a, b)
	want := FromRows([][]float64{{19, 22}, {43, 50}})
	if !c.Equal(want, 1e-12) {
		t.Fatalf("Mul = %v, want %v", c, want)
	}
}

func TestMulIdentity(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomMatrix(17, 17, rng)
	if !Mul(a, Identity(17)).Equal(a, 1e-12) {
		t.Fatal("A·I != A")
	}
	if !Mul(Identity(17), a).Equal(a, 1e-12) {
		t.Fatal("I·A != A")
	}
}

func TestMulMatchesNaive(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(k, n, rng)
		return Mul(a, b).Equal(naiveMul(a, b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulATMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(m, n, rng)
		return MulAT(a, b).Equal(naiveMul(a.T(), b), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulBTMatchesTranspose(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		m, k, n := 1+rng.Intn(12), 1+rng.Intn(12), 1+rng.Intn(12)
		a := randomMatrix(m, k, rng)
		b := randomMatrix(n, k, rng)
		return MulBT(a, b).Equal(naiveMul(a, b.T()), 1e-9)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestMulLargeParallelPath(t *testing.T) {
	// Large enough to cross the parallel threshold in parallelRows.
	rng := rand.New(rand.NewSource(3))
	a := randomMatrix(120, 90, rng)
	b := randomMatrix(90, 110, rng)
	if !Mul(a, b).Equal(naiveMul(a, b), 1e-8) {
		t.Fatal("parallel Mul disagrees with naive product")
	}
}

func TestMulVec(t *testing.T) {
	a := FromRows([][]float64{{1, 2, 3}, {4, 5, 6}})
	y := MulVec(a, []float64{1, 1, 1})
	if y[0] != 6 || y[1] != 15 {
		t.Fatalf("MulVec = %v", y)
	}
}

func TestMulDimensionPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on dimension mismatch")
		}
	}()
	Mul(New(2, 3), New(2, 3))
}

func TestMulIntoReusesBuffer(t *testing.T) {
	a := FromRows([][]float64{{1, 0}, {0, 1}})
	b := FromRows([][]float64{{2, 3}, {4, 5}})
	c := New(2, 2)
	c.Fill(99) // stale values must be overwritten
	MulInto(c, a, b, 0)
	if !c.Equal(b, 1e-12) {
		t.Fatalf("MulInto = %v, want %v", c, b)
	}

	// On every ragged shape the register-blocked kernel overwrites stale
	// values with exactly the reference loop's bits. A zero column of a
	// faces ±Inf/NaN in b: the skipped terms must leave the result finite.
	checkMatchesReference(t, MulInto, refMulInto, func(m, k, n int, rng *rand.Rand) (c, a, b *Matrix) {
		a, b = zeroedOperand(m, k, rng), zeroedOperand(k, n, rng)
		if k >= 2 {
			for i := 0; i < m; i++ {
				a.Set(i, 0, math.Copysign(0, float64(i%2*2-1)))
			}
			for j := 0; j < n; j++ {
				b.Set(0, j, specials[j%len(specials)])
			}
		}
		c = New(m, n)
		c.Fill(99)
		return c, a, b
	})
}

func TestMulBTIntoWorkerCountsAgree(t *testing.T) {
	// The cache-blocked kernel must produce bit-identical results for
	// every worker count — this is what makes Config.Workers a pure
	// performance knob.
	rng := rand.New(rand.NewSource(11))
	a := randomMatrix(333, 48, rng)
	b := randomMatrix(257, 48, rng)
	want := New(a.Rows, b.Rows)
	MulBTInto(want, a, b, 1)
	for _, w := range []int{2, 3, 8} {
		got := New(a.Rows, b.Rows)
		got.Fill(-1)
		MulBTInto(got, a, b, w)
		if !got.Equal(want, 0) {
			t.Fatalf("MulBTInto with %d workers diverged", w)
		}
	}

	// Every worker count also matches the reference loop bit for bit on
	// ragged shapes around the 2×4 register tile. MulBTInto skips no
	// terms, so a zero column of a facing ±Inf/NaN in b's last row must
	// turn that output column into NaN exactly as the reference does.
	checkMatchesReference(t, MulBTInto, refMulBTInto, func(m, k, n int, rng *rand.Rand) (c, a, b *Matrix) {
		a, b = zeroedOperand(m, k, rng), zeroedOperand(n, k, rng)
		if k >= 2 && n >= 2 {
			for i := 0; i < m; i++ {
				a.Set(i, 0, math.Copysign(0, float64(i%2*2-1)))
			}
			b.Set(n-1, 0, specials[n%len(specials)])
		}
		c = New(m, n)
		c.Fill(-1)
		return c, a, b
	})
}

func TestMulATAccum(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	a := randomMatrix(40, 7, rng)
	b := randomMatrix(40, 9, rng)
	c := randomMatrix(7, 9, rng)
	want := c.Clone()
	want.Add(MulAT(a, b))
	MulATAccum(c, a, b, 0)
	if !c.Equal(want, 1e-12) {
		t.Fatal("MulATAccum != c + MulAT(a,b)")
	}

	// Accumulating into a non-zero c, the register-blocked kernel matches
	// the reference loop bit for bit on ragged shapes. A zero row of a
	// faces ±Inf/NaN in b: the skipped terms must leave c finite.
	checkMatchesReference(t, MulATAccum, refMulATAccum, func(m, k, n int, rng *rand.Rand) (c, a, b *Matrix) {
		a, b = zeroedOperand(m, k, rng), zeroedOperand(m, n, rng)
		if m >= 2 {
			for l := 0; l < k; l++ {
				a.Set(0, l, math.Copysign(0, float64(l%2*2-1)))
			}
			for j := 0; j < n; j++ {
				b.Set(0, j, specials[j%len(specials)])
			}
		}
		return zeroedOperand(k, n, rng), a, b
	})
}

func TestTransposeInto(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	// Dimensions straddling the tile size exercise the partial-tile edges.
	for _, dims := range [][2]int{{3, 5}, {64, 64}, {65, 63}, {1, 200}, {130, 70}} {
		m := randomMatrix(dims[0], dims[1], rng)
		tr := m.T()
		for i := 0; i < m.Rows; i++ {
			for j := 0; j < m.Cols; j++ {
				if tr.At(j, i) != m.At(i, j) {
					t.Fatalf("%dx%d transpose wrong at (%d,%d)", dims[0], dims[1], i, j)
				}
			}
		}
	}
}

// BenchmarkMulKernels times the three GEMM kernels on one worker at the
// shapes the pipeline runs, for n = 800 and 4000 nodes, and reports each
// kernel's throughput in GFLOP/s (2·m·k·n per product):
//   - MulInto: the input layer n×3·3×128, a hidden layer n×128·128×64
//     and the reconstruction loss n×64·64×64;
//   - MulATAccum: the weight gradient aᵀ·b accumulated into 128×64;
//   - MulBTInto: one 256-row top-k scan block against n target rows, the
//     backward pass n×64·(128×64)ᵀ and the ANN projection n×64·(16×64)ᵀ.
func BenchmarkMulKernels(b *testing.B) {
	type shape struct {
		name           string
		kernel         func(c, a, b *Matrix, workers int)
		aR, aC, bR, bC int
		cR, cC         int
	}
	for _, n := range []int{800, 4000} {
		shapes := []shape{
			{"MulInto/3x128", MulInto, n, 3, 3, 128, n, 128},
			{"MulInto/128x64", MulInto, n, 128, 128, 64, n, 64},
			{"MulInto/64x64", MulInto, n, 64, 64, 64, n, 64},
			{"MulATAccum/128x64", MulATAccum, n, 128, n, 64, 128, 64},
			{"MulBTInto/block256", MulBTInto, 256, 64, n, 64, 256, n},
			{"MulBTInto/128x64", MulBTInto, n, 64, 128, 64, n, 128},
			{"MulBTInto/16x64", MulBTInto, n, 64, 16, 64, n, 16},
		}
		for _, s := range shapes {
			b.Run(fmt.Sprintf("n=%d/%s", n, s.name), func(b *testing.B) {
				rng := rand.New(rand.NewSource(1))
				x, y := randomMatrix(s.aR, s.aC, rng), randomMatrix(s.bR, s.bC, rng)
				c := New(s.cR, s.cC)
				b.ReportAllocs()
				iters := 0
				for b.Loop() {
					s.kernel(c, x, y, 1)
					iters++
				}
				flops := 2 * float64(s.aR) * float64(s.aC) * float64(s.cC) * float64(iters)
				b.ReportMetric(flops/b.Elapsed().Seconds()/1e9, "GFLOP/s")
			})
		}
	}
}
