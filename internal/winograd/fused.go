package winograd

import (
	"fmt"

	"mptwino/internal/tensor"
)

// Fused sandwich transforms. The Cook–Toom matrices B, G, A are sparse with
// small fixed coefficients (0, ±1, ±½, … — e.g. every F(2,3) entry is one
// of 0, ±1, ±½), so each transform L·x·R is compiled once, at MakeTransform
// time, into a sparse per-row/per-column term schedule, and the executor
// (laneSandwich) accumulates only the nonzero terms — without the dense
// inner products (or the two temporary matrices) of tensor.Sandwich.
//
// Bit-compatibility with tensor.Sandwich (verified in fused_test.go): the
// schedule enumerates exactly the nonzero coefficients of L (resp. R) in
// ascending k, which is precisely the set and order of addends the naive
// MatMul reference accumulates for stage 1 (its zero-skip tests the left
// operand, i.e. the coefficients). Stage 2's reference skips data zeros
// instead; the sets differ only in ±0 addends, which cannot change an
// accumulator chain that starts at +0 (x + (±0) = x, and +0 + (±0) = +0
// under round-to-nearest). Every addend is the product c·v, rounded as in
// the reference.
//
// Transforms with T beyond fusedMaxT (far past every size the paper uses)
// skip compilation at MakeTransform, so their per-tile Into methods take
// the allocation-free generic sandwichInto path, which replicates the
// reference loops directly. The Domain and weight loops always run the
// lane executor: NewTiling and NewWeights compile the schedules themselves
// when the transform has none.

// fusedMaxT bounds the tile sizes that get compiled schedules.
const fusedMaxT = 8

// term is one addend of a sparse dot product: coefficient c applied to the
// operand at index k. Terms are stored in ascending k.
type term struct {
	k int32
	c float32
}

// Sched is the compiled sparse structure of a transform matrix: rows[i]
// lists the nonzero (k, c) of row i.
type Sched struct {
	rows [][]term
	cols int
}

// CompileSched compiles m's nonzero coefficients, row by row in ascending
// column order, into a term schedule.
func CompileSched(m *tensor.Mat) *Sched {
	s := &Sched{rows: make([][]term, m.Rows), cols: m.Cols}
	for i := 0; i < m.Rows; i++ {
		for k := 0; k < m.Cols; k++ {
			if c := m.At(i, k); c != 0 {
				s.rows[i] = append(s.rows[i], term{k: int32(k), c: c})
			}
		}
	}
	return s
}

// fusedOps holds the compiled schedules of the six transform matrices. The
// stage-2 (right-multiply) schedule of a matrix R is the row schedule of
// Rᵀ, which is always one of these six.
type fusedOps struct {
	g, gt, b, bt, a, at *Sched
}

func compileFused(tr *Transform) *fusedOps {
	return &fusedOps{
		g:  CompileSched(tr.G),
		gt: CompileSched(tr.GT),
		b:  CompileSched(tr.B),
		bt: CompileSched(tr.BT),
		a:  CompileSched(tr.A),
		at: CompileSched(tr.AT),
	}
}

// schedules returns tr's compiled schedules, compiling them when
// MakeTransform did not (T > fusedMaxT, or a Transform assembled by hand).
func schedules(tr *Transform) *fusedOps {
	if tr.fused != nil {
		return tr.fused
	}
	return compileFused(tr)
}

// Lanes is the tile batch of the lane executors: the Domain and weight
// transform loops apply each schedule term to up to this many tiles (one
// per channel) in one pass, and so does the activation predictor.
const Lanes = 8

// laneSandwich computes dst = L·x·R for n independent tiles ("lanes")
// stored lane-minor: element (i, j) of lane l sits at (i·cols + j)·n + l,
// so x is ls.cols × rts.cols × n and dst is len(ls.rows) × len(rts.rows)
// × n. ls is the schedule of L and rts the schedule of Rᵀ; tmp must hold
// len(ls.rows)·rts.cols·n floats for the stage-1 product L·x.
//
// Every lane sees exactly the float operations of a one-tile pass, in the
// same order: each entry of L·x (stage 1) and of (L·x)·R (stage 2) starts
// at +0 and adds c·v for its schedule terms in ascending k. Lanes never
// mix, so a lane's result depends neither on n nor on its neighbours, and
// n = 1 is the per-tile transform.
func laneSandwich(dst []float32, ls, rts *Sched, x []float32, n int, tmp []float32) {
	lr, xr, xc, dc := len(ls.rows), ls.cols, rts.cols, len(rts.rows)
	if len(x) < xr*xc*n || len(dst) < lr*dc*n || len(tmp) < lr*xc*n {
		panic(fmt.Sprintf("winograd: lane sandwich buffers x %d, dst %d, tmp %d too small for %dx%d · %dx%d · %dx%d, %d lanes",
			len(x), len(dst), len(tmp), lr, xr, xr, xc, xc, dc, n))
	}
	t1 := tmp[: lr*xc*n : lr*xc*n]
	if n == Lanes {
		for i, terms := range ls.rows {
			for j := 0; j < xc; j++ {
				dotLanes((*[Lanes]float32)(t1[(i*xc+j)*Lanes:]), terms, x[j*Lanes:], xc*Lanes)
			}
		}
		for i := 0; i < lr; i++ {
			for j, terms := range rts.rows {
				dotLanes((*[Lanes]float32)(dst[(i*dc+j)*Lanes:]), terms, t1[i*xc*Lanes:], Lanes)
			}
		}
		return
	}
	// Any other lane count (the per-tile transforms, channel tails): one
	// scalar chain per entry and lane.
	for i, terms := range ls.rows {
		for j := 0; j < xc*n; j++ {
			t1[i*xc*n+j] = dot1(terms, x[j:], xc*n)
		}
	}
	for i := 0; i < lr; i++ {
		for j, terms := range rts.rows {
			for l := 0; l < n; l++ {
				dst[(i*dc+j)*n+l] = dot1(terms, t1[i*xc*n+l:], n)
			}
		}
	}
}

// dot1 returns Σ c·src[k·stride] over terms, starting at +0 and adding in
// term order.
func dot1(terms []term, src []float32, stride int) float32 {
	var acc float32
	for _, t := range terms {
		acc += t.c * src[int(t.k)*stride]
	}
	return acc
}

// DotLanes sets d = Σ c·src[k·stride : k·stride+Lanes] over the terms of
// row i of s: the 8-lane dot of the transform executor, exported for
// other lane executors over the same schedules.
func (s *Sched) DotLanes(d *[Lanes]float32, i int, src []float32, stride int) {
	dotLanes(d, s.rows[i], src, stride)
}

// dotLanes sets d = Σ c·src[k·stride : k·stride+Lanes] over terms, lane by
// lane, each lane's sum starting at +0 and adding in term order. The
// accumulators stay in registers across the terms.
func dotLanes(d *[Lanes]float32, terms []term, src []float32, stride int) {
	var a0, a1, a2, a3, a4, a5, a6, a7 float32
	for _, t := range terms {
		s := (*[Lanes]float32)(src[int(t.k)*stride:])
		c := t.c
		a0 += c * s[0]
		a1 += c * s[1]
		a2 += c * s[2]
		a3 += c * s[3]
		a4 += c * s[4]
		a5 += c * s[5]
		a6 += c * s[6]
		a7 += c * s[7]
	}
	*d = [Lanes]float32{a0, a1, a2, a3, a4, a5, a6, a7}
}

// sandwichInto is the generic allocation-free fallback: dst = l·x·r with
// the exact reference semantics of tensor.Sandwich (two naive multiplies,
// zero-skip on the left operand), staging l·x in tmp.
func sandwichInto(dst *tensor.Mat, l, x, r *tensor.Mat, tmp []float32) {
	if l.Cols != x.Rows || x.Cols != r.Rows || dst.Rows != l.Rows || dst.Cols != r.Cols {
		panic(fmt.Sprintf("winograd: sandwich shape error dst %dx%d = %dx%d · %dx%d · %dx%d",
			dst.Rows, dst.Cols, l.Rows, l.Cols, x.Rows, x.Cols, r.Rows, r.Cols))
	}
	lr, xc := l.Rows, x.Cols
	t1 := tmp[: lr*xc : lr*xc]
	for i := range t1 {
		t1[i] = 0
	}
	for i := 0; i < lr; i++ {
		lrow := l.Data[i*l.Cols : (i+1)*l.Cols]
		drow := t1[i*xc : i*xc+xc]
		for k, lv := range lrow {
			if lv == 0 {
				continue
			}
			xrow := x.Data[k*xc : k*xc+xc]
			for j, xv := range xrow {
				drow[j] += lv * xv
			}
		}
	}
	for i := range dst.Data {
		dst.Data[i] = 0
	}
	for i := 0; i < lr; i++ {
		trow := t1[i*xc : i*xc+xc]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, tv := range trow {
			if tv == 0 {
				continue
			}
			rrow := r.Data[k*r.Cols : (k+1)*r.Cols]
			for j, rv := range rrow {
				drow[j] += tv * rv
			}
		}
	}
}

// TmpLen returns the scratch length the Into transform methods need.
func (tr *Transform) TmpLen() int { return tr.T * tr.T }

// sandwich dispatches one transform step. Every transform here has the
// form S·x·Sᵀ, so a single schedule s (of S) drives both stages of the
// lane executor, run with one lane; l/x/r feed the generic fallback when
// s is nil.
func (tr *Transform) sandwich(dst *tensor.Mat, s *Sched, l, x, r *tensor.Mat, tmp []float32) {
	if s == nil {
		sandwichInto(dst, l, x, r, tmp)
		return
	}
	if x.Rows != s.cols || x.Cols != s.cols || dst.Rows != len(s.rows) || dst.Cols != len(s.rows) {
		panic(fmt.Sprintf("winograd: fused sandwich shape error dst %dx%d, S %dx%d, x %dx%d",
			dst.Rows, dst.Cols, len(s.rows), s.cols, x.Rows, x.Cols))
	}
	laneSandwich(dst.Data, s, s, x.Data, 1, tmp)
}

// FilterToWinogradInto computes dst = G·w·Gᵀ (shape T×T) without
// allocating; tmp needs TmpLen() floats.
func (tr *Transform) FilterToWinogradInto(dst, w *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.g
	}
	tr.sandwich(dst, s, tr.G, w, tr.GT, tmp)
}

// InputToWinogradInto computes dst = Bᵀ·x·B (shape T×T) without allocating.
func (tr *Transform) InputToWinogradInto(dst, x *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.bt
	}
	tr.sandwich(dst, s, tr.BT, x, tr.B, tmp)
}

// OutputFromWinogradInto computes dst = Aᵀ·y·A (shape M×M) without
// allocating.
func (tr *Transform) OutputFromWinogradInto(dst, y *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.at
	}
	tr.sandwich(dst, s, tr.AT, y, tr.A, tmp)
}

// OutputToWinogradInto computes dst = A·dy·Aᵀ (shape T×T) without
// allocating.
func (tr *Transform) OutputToWinogradInto(dst, dy *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.a
	}
	tr.sandwich(dst, s, tr.A, dy, tr.AT, tmp)
}

// InputFromWinogradInto computes dst = B·dX·Bᵀ (shape T×T) without
// allocating.
func (tr *Transform) InputFromWinogradInto(dst, dx *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.b
	}
	tr.sandwich(dst, s, tr.B, dx, tr.BT, tmp)
}

// FilterFromWinogradInto computes dst = Gᵀ·dW·G (shape R×R) without
// allocating.
func (tr *Transform) FilterFromWinogradInto(dst, dw *tensor.Mat, tmp []float32) {
	var s *Sched
	if tr.fused != nil {
		s = tr.fused.gt
	}
	tr.sandwich(dst, s, tr.GT, dw, tr.G, tmp)
}
