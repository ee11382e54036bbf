package tensor

import (
	"fmt"
	"math"
)

// Lane-stage kernel. The Winograd tile transforms and the activation
// predictor apply small sparse matrices (the Cook–Toom B, G, A and their
// sign splits) to batches of independent tiles stored lane-minor: entry
// (i, j) of lane l of an r×c tile batch sits at (i·c + j)·n + l. Every such
// product is one "stage": for o < outer and each schedule row r,
//
//	dst[o·dOuter + r·dRow : +n] = Σ c·src[o·sOuter + k·kStride : +n]
//
// over row r's nonzero terms (k, c) in ascending k. S·x and x·Sᵀ are the
// two strides of that loop (LaneSched.MulLanes and MulLanesT). At n = Lanes
// the active dispatch tier (gemm_kernel.go) runs the whole stage in one
// assembly call, 8 lanes per vector; other lane counts, and the portable
// tier, run the Go loop in laneStageGo.
//
// Determinism: every entry of every lane starts at +0 and adds the rounded
// product c·v for its terms in ascending k, on every path. Lanes never mix,
// so a lane's result depends neither on n nor on its neighbours. NaN
// payloads agree too: the assembly adds with the accumulator as the first
// operand, so once an entry is NaN it keeps that NaN, and the Go loop
// states the same rule explicitly (addKeepNaN).

// Lanes is the lane width of the assembly stage kernels: one AVX2 vector
// (two SSE vectors) of float32.
const Lanes = 8

// laneTerm is one addend of a sparse dot product: coefficient c applied to
// operand k. The assembly kernels read it as 8 bytes: k at +0, c at +4.
type laneTerm struct {
	k int32
	c float32
}

// LaneSched is the compiled sparse structure of a matrix S for the
// lane-stage kernel: the nonzero coefficients of every row, row after row,
// in ascending column order. It is immutable once compiled, and every k is
// below Cols() — the invariant that lets MulLanes and MulLanesT check the
// extent of their operands once per call instead of once per term.
type LaneSched struct {
	terms []laneTerm // all rows' terms, row-major, ascending k within a row
	off   []int32    // row r's terms are terms[off[r]:off[r+1]]
	cols  int
}

// CompileLaneSched compiles m's nonzero coefficients, row by row in
// ascending column order. Coefficients must be finite: with a finite
// nonzero c, a product c·v is NaN exactly when v is, so the order of a
// multiply's operands never picks a NaN payload.
func CompileLaneSched(m *Mat) *LaneSched {
	s := &LaneSched{off: make([]int32, 1, m.Rows+1), cols: m.Cols}
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			c := m.At(i, k)
			if math.IsNaN(float64(c)) || math.IsInf(float64(c), 0) {
				panic(fmt.Sprintf("tensor: lane schedule coefficient (%d, %d) = %v is not finite", i, k, c))
			}
			if c != 0 {
				s.terms = append(s.terms, laneTerm{k: int32(k), c: c})
			}
		}
		s.off = append(s.off, int32(len(s.terms)))
	}
	return s
}

// Rows returns the number of rows of S.
func (s *LaneSched) Rows() int { return len(s.off) - 1 }

// Cols returns the number of columns of S.
func (s *LaneSched) Cols() int { return s.cols }

// MulLanes sets dst = S·x for n lanes: x is Cols() × cols × n and dst is
// Rows() × cols × n, both lane-minor. dst must not overlap x. It panics
// when either buffer is shorter than its extent.
//
//mptlint:noalloc
func (s *LaneSched) MulLanes(dst, x []float32, cols, n int) {
	s.check("MulLanes", dst, x, cols, n, s.Rows()*cols*n, s.cols*cols*n)
	s.stage(dst, x, cols, n, n, cols*n, n, cols*n)
}

// MulLanesT sets dst = x·Sᵀ for n lanes: x is rows × Cols() × n and dst is
// rows × Rows() × n, both lane-minor. dst must not overlap x. It panics
// when either buffer is shorter than its extent.
//
//mptlint:noalloc
func (s *LaneSched) MulLanesT(dst, x []float32, rows, n int) {
	s.check("MulLanesT", dst, x, rows, n, rows*s.Rows()*n, rows*s.cols*n)
	s.stage(dst, x, rows, n, s.Rows()*n, n, s.cols*n, n)
}

// check is the one extent check of a stage: the kernels address dst up to
// dstLen and x up to srcLen floats and nothing beyond.
func (s *LaneSched) check(op string, dst, x []float32, outer, n, dstLen, srcLen int) {
	if outer < 0 || n < 0 || len(dst) < dstLen || len(x) < srcLen {
		panic(fmt.Sprintf("tensor: %s of a %dx%d schedule over %d×%d lanes needs dst %d, x %d floats; got %d, %d",
			op, s.Rows(), s.cols, outer, n, dstLen, srcLen, len(dst), len(x)))
	}
}

// stage runs one checked stage on the active tier: the tier's assembly
// kernel at n = Lanes, the Go loop otherwise. A schedule without terms
// (an all-zero S, or Cols() = 0) also takes the Go loop, which only
// stores zeros.
func (s *LaneSched) stage(dst, src []float32, outer, n, dOuter, dRow, sOuter, kStride int) {
	rows := s.Rows()
	if outer == 0 || n == 0 || rows == 0 {
		return
	}
	if g := activeGemm.Load(); n == Lanes && g.lanes != nil && len(s.terms) > 0 {
		g.lanes(&dst[0], &src[0], &s.terms[0], &s.off[0], rows, outer, dOuter, dRow, sOuter, kStride)
		return
	}
	laneStageGo(dst, src, s.terms, s.off, outer, n, dOuter, dRow, sOuter, kStride)
}

// laneStageGo is the portable stage loop, the reference every assembly
// tier matches bit for bit. At n = Lanes it keeps the eight accumulators
// of an entry in registers. Products are rounded explicitly (float32(c·v))
// so that no architecture fuses the multiply-add, and each add goes
// through addKeepNaN.
func laneStageGo(dst, src []float32, terms []laneTerm, off []int32, outer, n, dOuter, dRow, sOuter, kStride int) {
	rows := len(off) - 1
	for o := 0; o < outer; o++ {
		d, x := dst[o*dOuter:], src[o*sOuter:]
		for r := 0; r < rows; r++ {
			row, dr := terms[off[r]:off[r+1]], d[r*dRow:]
			if n == Lanes {
				var a0, a1, a2, a3, a4, a5, a6, a7 float32
				for _, t := range row {
					v, c := (*[Lanes]float32)(x[int(t.k)*kStride:]), t.c
					a0 = addKeepNaN(a0, float32(c*v[0]))
					a1 = addKeepNaN(a1, float32(c*v[1]))
					a2 = addKeepNaN(a2, float32(c*v[2]))
					a3 = addKeepNaN(a3, float32(c*v[3]))
					a4 = addKeepNaN(a4, float32(c*v[4]))
					a5 = addKeepNaN(a5, float32(c*v[5]))
					a6 = addKeepNaN(a6, float32(c*v[6]))
					a7 = addKeepNaN(a7, float32(c*v[7]))
				}
				*(*[Lanes]float32)(dr) = [Lanes]float32{a0, a1, a2, a3, a4, a5, a6, a7}
				continue
			}
			for l := range dr[:n] {
				var acc float32
				for _, t := range row {
					acc = addKeepNaN(acc, float32(t.c*x[int(t.k)*kStride+l]))
				}
				dr[l] = acc
			}
		}
	}
}

// addKeepNaN returns acc + p, except that a NaN acc is returned unchanged.
// That is what the assembly kernels' accumulator-first add computes on
// x86 (two NaN operands yield the first), written out because Go fixes no
// operand order for a commutative add: the compiler puts the product
// first or second as register pressure dictates, which picks a different
// payload when both addends are NaN. With acc not NaN the order cannot
// matter, since acc + p and p + acc are the same IEEE result then.
func addKeepNaN(acc, p float32) float32 {
	if acc != acc {
		return acc
	}
	return acc + p
}
