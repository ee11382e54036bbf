package winograd

import (
	"fmt"

	"mptwino/internal/tensor"
)

// Fused sandwich transforms. The Cook–Toom matrices B, G, A are sparse with
// small fixed coefficients (0, ±1, ±½, … — e.g. every F(2,3) entry is one
// of 0, ±1, ±½), so each transform L·x·R is compiled once, at MakeTransform
// time, into sparse row schedules (tensor.LaneSched), and the executor
// (laneSandwich) runs it as two lane stages that accumulate only the
// nonzero terms — without the dense inner products (or the two temporary
// matrices) of tensor.Sandwich.
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
// MakeTransform compiles the schedules of every transform it builds. A
// Transform assembled by hand has none: its per-tile Into methods panic,
// while NewTiling and NewWeights compile the schedules themselves.

// fusedOps holds the compiled schedules of the six transform matrices. The
// stage-2 (right-multiply) schedule of a matrix R is the row schedule of
// Rᵀ, which is always one of these six.
type fusedOps struct {
	g, gt, b, bt, a, at *tensor.LaneSched
}

func compileFused(tr *Transform) *fusedOps {
	return &fusedOps{
		g:  tensor.CompileLaneSched(tr.G),
		gt: tensor.CompileLaneSched(tr.GT),
		b:  tensor.CompileLaneSched(tr.B),
		bt: tensor.CompileLaneSched(tr.BT),
		a:  tensor.CompileLaneSched(tr.A),
		at: tensor.CompileLaneSched(tr.AT),
	}
}

// schedules returns tr's compiled schedules, compiling them for a
// Transform assembled by hand.
func schedules(tr *Transform) *fusedOps {
	if tr.fused != nil {
		return tr.fused
	}
	return compileFused(tr)
}

// Lanes is the tile batch of the lane executors: the Domain and weight
// transform loops apply each schedule term to up to this many tiles (one
// per channel) in one pass, and so does the activation predictor. It is
// the width of the tier's assembly stage kernel.
const Lanes = tensor.Lanes

// laneSandwich computes dst = L·x·R for n independent tiles ("lanes")
// stored lane-minor: element (i, j) of lane l sits at (i·cols + j)·n + l,
// so x is ls.Cols() × rts.Cols() × n and dst is ls.Rows() × rts.Rows() ×
// n. ls is the schedule of L and rts the schedule of Rᵀ; tmp must hold
// ls.Rows()·rts.Cols()·n floats for the stage-1 product L·x.
//
// It is two lane stages, L·x (MulLanes) and (L·x)·R (MulLanesT), each one
// kernel call that checks its buffers once. Every lane sees exactly the
// float operations of a one-tile pass, in the same order: each entry
// starts at +0 and adds c·v for its schedule terms in ascending k. Lanes
// never mix, so a lane's result depends neither on n nor on its
// neighbours, and n = 1 is the per-tile transform.
func laneSandwich(dst []float32, ls, rts *tensor.LaneSched, x []float32, n int, tmp []float32) {
	ls.MulLanes(tmp, x, rts.Cols(), n)
	rts.MulLanesT(dst, tmp, ls.Rows(), n)
}

// TmpLen returns the scratch length the Into transform methods need.
func (tr *Transform) TmpLen() int { return tr.T * tr.T }

// ops returns the schedules MakeTransform compiled; the per-tile Into
// methods do not compile on the fly, so a hand-assembled Transform panics.
func (tr *Transform) ops() *fusedOps {
	if tr.fused == nil {
		panic("winograd: per-tile transform on a Transform not built by MakeTransform")
	}
	return tr.fused
}

// sandwich runs one per-tile transform step. Every transform here has the
// form S·x·Sᵀ, so a single schedule s (of S) drives both stages of the
// lane executor, run with one lane.
func sandwich(dst *tensor.Mat, s *tensor.LaneSched, x *tensor.Mat, tmp []float32) {
	if x.Rows != s.Cols() || x.Cols != s.Cols() || dst.Rows != s.Rows() || dst.Cols != s.Rows() {
		panic(fmt.Sprintf("winograd: fused sandwich shape error dst %dx%d, S %dx%d, x %dx%d",
			dst.Rows, dst.Cols, s.Rows(), s.Cols(), x.Rows, x.Cols))
	}
	laneSandwich(dst.Data, s, s, x.Data, 1, tmp)
}

// FilterToWinogradInto computes dst = G·w·Gᵀ (shape T×T) without
// allocating; tmp needs TmpLen() floats.
func (tr *Transform) FilterToWinogradInto(dst, w *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().g, w, tmp)
}

// InputToWinogradInto computes dst = Bᵀ·x·B (shape T×T) without allocating.
func (tr *Transform) InputToWinogradInto(dst, x *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().bt, x, tmp)
}

// OutputFromWinogradInto computes dst = Aᵀ·y·A (shape M×M) without
// allocating.
func (tr *Transform) OutputFromWinogradInto(dst, y *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().at, y, tmp)
}

// OutputToWinogradInto computes dst = A·dy·Aᵀ (shape T×T) without
// allocating.
func (tr *Transform) OutputToWinogradInto(dst, dy *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().a, dy, tmp)
}

// InputFromWinogradInto computes dst = B·dX·Bᵀ (shape T×T) without
// allocating.
func (tr *Transform) InputFromWinogradInto(dst, dx *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().b, dx, tmp)
}

// FilterFromWinogradInto computes dst = Gᵀ·dW·G (shape R×R) without
// allocating.
func (tr *Transform) FilterFromWinogradInto(dst, dw *tensor.Mat, tmp []float32) {
	sandwich(dst, tr.ops().gt, dw, tmp)
}
