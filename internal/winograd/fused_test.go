package winograd

import (
	"math"
	"math/rand"
	"testing"

	"mptwino/internal/tensor"
)

// sandwichRef is the reference the fused paths must match bit-exactly: the
// naive mul+add sandwich pipeline the transforms used previously. It pins
// the reference loops directly rather than tensor.Sandwich so the check
// does not depend on the GEMM dispatch tier.
func sandwichRef(l, x, r *tensor.Mat) *tensor.Mat {
	lx := tensor.NewMat(l.Rows, x.Cols)
	tensor.MatMulNaiveInto(lx, l, x)
	out := tensor.NewMat(lx.Rows, r.Cols)
	tensor.MatMulNaiveInto(out, lx, r)
	return out
}

func randTile(rng *rand.Rand, n, m int, zeroFrac float64) *tensor.Mat {
	out := tensor.NewMat(n, m)
	for i := range out.Data {
		if rng.Float64() < zeroFrac {
			continue
		}
		out.Data[i] = float32(rng.NormFloat64())
	}
	return out
}

func mustBitEqual(t *testing.T, ctx string, want, got *tensor.Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: % .9g vs % .9g", ctx, i, want.Data[i], got.Data[i])
		}
	}
}

// checkTransformOps drives all six Into transforms of tr against the
// tensor.Sandwich reference, with data that includes exact zeros (the
// zero-padded tiles at feature-map edges).
func checkTransformOps(t *testing.T, tr *Transform, zeroFrac float64) {
	t.Helper()
	rng := rand.New(rand.NewSource(int64(tr.T)*100 + int64(tr.R)))
	tmp := make([]float32, tr.TmpLen())
	cases := []struct {
		name    string
		l, r    *tensor.Mat
		in, out int // input/output side lengths
		apply   func(dst, x *tensor.Mat)
	}{
		{"FilterToWinograd", tr.G, tr.GT, tr.R, tr.T, func(d, x *tensor.Mat) { tr.FilterToWinogradInto(d, x, tmp) }},
		{"InputToWinograd", tr.BT, tr.B, tr.T, tr.T, func(d, x *tensor.Mat) { tr.InputToWinogradInto(d, x, tmp) }},
		{"OutputFromWinograd", tr.AT, tr.A, tr.T, tr.M, func(d, x *tensor.Mat) { tr.OutputFromWinogradInto(d, x, tmp) }},
		{"OutputToWinograd", tr.A, tr.AT, tr.M, tr.T, func(d, x *tensor.Mat) { tr.OutputToWinogradInto(d, x, tmp) }},
		{"InputFromWinograd", tr.B, tr.BT, tr.T, tr.T, func(d, x *tensor.Mat) { tr.InputFromWinogradInto(d, x, tmp) }},
		{"FilterFromWinograd", tr.GT, tr.G, tr.T, tr.R, func(d, x *tensor.Mat) { tr.FilterFromWinogradInto(d, x, tmp) }},
	}
	for _, tc := range cases {
		for trial := 0; trial < 20; trial++ {
			x := randTile(rng, tc.in, tc.in, zeroFrac)
			want := sandwichRef(tc.l, x, tc.r)
			got := tensor.NewMat(tc.out, tc.out)
			// Poison dst to prove it is fully overwritten.
			for i := range got.Data {
				got.Data[i] = float32(math.NaN())
			}
			tc.apply(got, x)
			mustBitEqual(t, tr.String()+"/"+tc.name, want, got)
		}
	}
}

// The compiled fused schedules must be bit-identical to the generic
// Cook–Toom sandwich for every transform the paper uses, plus the wide
// F(6×6,3×3) (T=8) the planner's tile axis can select behind
// AllowWideTiles.
func TestFusedTransformsBitIdentical(t *testing.T) {
	for _, tr := range []*Transform{F2x2_3x3, F4x4_3x3, F2x2_5x5, F6x6_3x3} {
		if tr.fused == nil {
			t.Fatalf("%s: expected compiled fused schedules", tr)
		}
		checkTransformOps(t, tr, 0.0)
		checkTransformOps(t, tr, 0.4) // zero-heavy data (padding tiles)
	}
}

// The wide-tile transforms must run their compiled schedules without
// allocating: they sit under the same steady-state training loops as
// F(2×2,3×3), so a hidden allocation would break the 0 allocs/op kernel
// contract layer-wide.
func TestWideTileTransformsZeroAlloc(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for _, tr := range []*Transform{F4x4_3x3, F6x6_3x3} {
		tmp := make([]float32, tr.TmpLen())
		w := randTile(rng, tr.R, tr.R, 0)
		x := randTile(rng, tr.T, tr.T, 0)
		dw := tensor.NewMat(tr.T, tr.T)
		dx := tensor.NewMat(tr.T, tr.T)
		y := tensor.NewMat(tr.M, tr.M)
		if n := testing.AllocsPerRun(10, func() {
			tr.FilterToWinogradInto(dw, w, tmp)
			tr.InputToWinogradInto(dx, x, tmp)
			tr.OutputFromWinogradInto(y, x, tmp)
		}); n != 0 {
			t.Fatalf("%s: compiled transforms allocate %v/op", tr, n)
		}
	}
}

// MakeTransform compiles schedules at every tile size, far past the ones
// the paper uses: F(6,5) (T = 10) runs them bit-identically too.
func TestF6x5TransformBitIdentical(t *testing.T) {
	tr, err := MakeTransform(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	if tr.fused == nil {
		t.Fatalf("F(6,5) with T=%d: expected compiled fused schedules", tr.T)
	}
	checkTransformOps(t, tr, 0.2)
}

// A Transform assembled outside MakeTransform has no schedules, and the
// per-tile Into methods do not compile them on the fly: each one panics.
func TestHandAssembledTransformPanics(t *testing.T) {
	tr := handAssembled()
	tmp := make([]float32, tr.TmpLen())
	x := tensor.NewMat(tr.T, tr.T)
	dst := tensor.NewMat(tr.T, tr.T)
	for name, f := range map[string]func(){
		"FilterToWinogradInto":   func() { tr.FilterToWinogradInto(dst, tensor.NewMat(tr.R, tr.R), tmp) },
		"InputToWinogradInto":    func() { tr.InputToWinogradInto(dst, x, tmp) },
		"OutputFromWinogradInto": func() { tr.OutputFromWinogradInto(tensor.NewMat(tr.M, tr.M), x, tmp) },
		"OutputToWinogradInto":   func() { tr.OutputToWinogradInto(dst, tensor.NewMat(tr.M, tr.M), tmp) },
		"InputFromWinogradInto":  func() { tr.InputFromWinogradInto(dst, x, tmp) },
		"FilterFromWinogradInto": func() { tr.FilterFromWinogradInto(tensor.NewMat(tr.R, tr.R), x, tmp) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on a hand-assembled Transform did not panic", name)
				}
			}()
			f()
		}()
	}
}

func TestMatVecInto(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	tr := F2_3
	v := make([]float32, tr.T)
	for i := range v {
		v[i] = float32(rng.NormFloat64())
	}
	dst := make([]float32, tr.T)
	tr.Transform1DInputInto(dst, v)
	ref := tr.Transform1DInput(v)
	for i := range ref {
		if math.Float32bits(ref[i]) != math.Float32bits(dst[i]) {
			t.Fatalf("Transform1DInputInto diverges at %d", i)
		}
	}
	out := make([]float32, tr.M)
	tr.Inverse1DOutputInto(out, v)
	refOut := tr.Inverse1DOutput(v)
	for i := range refOut {
		if math.Float32bits(refOut[i]) != math.Float32bits(out[i]) {
			t.Fatalf("Inverse1DOutputInto diverges at %d", i)
		}
	}
}
