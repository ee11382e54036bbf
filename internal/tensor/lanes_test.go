package tensor

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// laneBits returns n floats drawn from the bit patterns that tell stage
// kernels apart: quiet and signalling NaNs with random payloads and signs
// (two NaN addends of one chain then decide the result's payload by operand
// order), ±Inf, −0, subnormals and ordinary normals.
func laneBits(rng *rand.Rand, n int) []float32 {
	out := make([]float32, n)
	for i := range out {
		sign := uint32(rng.Intn(2)) << 31
		switch rng.Intn(8) {
		case 0: // quiet NaN
			out[i] = math.Float32frombits(sign | 0x7fc00000 | uint32(rng.Intn(1<<22)))
		case 1: // signalling NaN (quiet bit clear, payload nonzero)
			out[i] = math.Float32frombits(sign | 0x7f800000 | uint32(1+rng.Intn(1<<22-1)))
		case 2:
			out[i] = math.Float32frombits(sign | 0x7f800000) // ±Inf
		case 3:
			out[i] = float32(math.Copysign(0, -1))
		case 4: // subnormal (or ±0)
			out[i] = math.Float32frombits(sign | uint32(rng.Intn(1<<23)))
		default:
			out[i] = float32(rng.NormFloat64())
		}
	}
	return out
}

// laneSchedMat returns a random rows×cols schedule matrix: a share zero of
// zero entries, the rest finite and nonzero — small dyadic values such as
// the Cook–Toom coefficients, and arbitrary normals.
func laneSchedMat(rng *rand.Rand, rows, cols int, zero float64) *Mat {
	m := NewMat(rows, cols)
	dyadic := []float32{1, -1, 0.5, -0.5, 2, -2, 0.25, -4, 1.0 / 3}
	for i := range m.Data {
		switch {
		case rng.Float64() < zero:
		case rng.Intn(2) == 0:
			m.Data[i] = dyadic[rng.Intn(len(dyadic))]
		default:
			m.Data[i] = float32(rng.NormFloat64()) + 3 // never 0
		}
	}
	return m
}

// stageGuard is the number of sentinel floats past each destination extent
// that no stage may write.
const stageGuard = 9

// RequireStagesMatchGo exposes requireStagesMatchGo to the external test
// package (lanes_tiers_test.go), which checks the engine's schedules.
var RequireStagesMatchGo = requireStagesMatchGo

// requireStagesMatchGo runs both stage forms of s over n lanes (outer
// columns or rows) on every tier and requires the bits of laneStageGo for
// each, with no write past the destination extent.
func requireStagesMatchGo(t *testing.T, ctx string, s *LaneSched, outer, n int, rng *rand.Rand) {
	t.Helper()
	defer restoreGemmKernel(t)
	forms := []struct {
		name           string
		dstLen, srcLen int
		run            func(dst, x []float32)
		ref            func(dst, x []float32)
	}{
		{"S·x", s.Rows() * outer * n, s.Cols() * outer * n,
			func(dst, x []float32) { s.MulLanes(dst, x, outer, n) },
			func(dst, x []float32) {
				laneStageGo(dst, x, s.terms, s.off, outer, n, n, outer*n, n, outer*n)
			}},
		{"x·Sᵀ", outer * s.Rows() * n, outer * s.Cols() * n,
			func(dst, x []float32) { s.MulLanesT(dst, x, outer, n) },
			func(dst, x []float32) {
				laneStageGo(dst, x, s.terms, s.off, outer, n, s.Rows()*n, n, s.Cols()*n, n)
			}},
	}
	for _, f := range forms {
		x := laneBits(rng, f.srcLen)
		want := make([]float32, f.dstLen)
		if f.dstLen > 0 && outer > 0 && n > 0 {
			f.ref(want, x)
		}
		for _, name := range GemmKernels() {
			if err := SelectGemmKernel(name); err != nil {
				t.Fatal(err)
			}
			got := laneBits(rng, f.dstLen+stageGuard)
			guard := append([]float32(nil), got[f.dstLen:]...)
			f.run(got, x)
			where := fmt.Sprintf("%s %s on %s (%dx%d schedule, outer %d, %d lanes)",
				ctx, f.name, name, s.Rows(), s.Cols(), outer, n)
			requireSameBits(t, where, want, got[:f.dstLen])
			requireSameBits(t, where+" guard", guard, got[f.dstLen:])
		}
	}
}

// requireSameBits fails unless a and b hold the same float32 bit patterns.
func requireSameBits(t *testing.T, ctx string, want, got []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(want[i]) != math.Float32bits(got[i]) {
			t.Fatalf("%s: element %d is %#08x, want %#08x", ctx, i,
				math.Float32bits(got[i]), math.Float32bits(want[i]))
		}
	}
}

// TestLaneStageShapesMatchGo sweeps random schedules over the shapes the
// callers use and past them: outer counts 1..9, 1..8 lanes (the tier
// kernel at 8, the Go loop otherwise), empty rows and all-zero schedules.
func TestLaneStageShapesMatchGo(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for rows := 1; rows <= 8; rows++ {
		for cols := 1; cols <= 8; cols++ {
			for _, zero := range []float64{0, 0.5, 1} {
				s := CompileLaneSched(laneSchedMat(rng, rows, cols, zero))
				for _, outer := range []int{1, 2, 9} {
					for _, n := range []int{1, 3, Lanes} {
						requireStagesMatchGo(t, "sweep", s, outer, n, rng)
					}
				}
			}
		}
	}
}

// TestLaneStageShortBufferPanics requires both stage forms to panic on
// every tier when dst or x is one float short of its extent, or when a
// count is negative, and to leave the buffers alone.
func TestLaneStageShortBufferPanics(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(3))
	s := CompileLaneSched(laneSchedMat(rng, 6, 4, 0.3))
	const outer = 5
	type call struct {
		name   string
		dst, x int
		run    func(dst, x []float32, outer, n int)
	}
	calls := []call{
		{"MulLanes", s.Rows() * outer * Lanes, s.Cols() * outer * Lanes, s.MulLanes},
		{"MulLanesT", outer * s.Rows() * Lanes, outer * s.Cols() * Lanes, s.MulLanesT},
	}
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		for _, c := range calls {
			for _, tc := range []struct {
				what          string
				dst, x, outer int
			}{
				{"short dst", c.dst - 1, c.x, outer},
				{"short x", c.dst, c.x - 1, outer},
				{"negative count", c.dst, c.x, -1},
			} {
				dst, x := make([]float32, tc.dst), make([]float32, tc.x)
				func() {
					defer func() {
						if recover() == nil {
							t.Errorf("%s %s %s: no panic", name, c.name, tc.what)
						}
					}()
					c.run(dst, x, tc.outer, Lanes)
				}()
				for _, v := range dst {
					if v != 0 {
						t.Fatalf("%s %s %s: wrote dst before panicking", name, c.name, tc.what)
					}
				}
			}
		}
	}
}

// TestLaneStageAllocFree pins both stage forms at 0 allocations per call
// on every tier, at the kernel's 8 lanes and on the Go loop's 1 lane.
func TestLaneStageAllocFree(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(8))
	s := CompileLaneSched(laneSchedMat(rng, 6, 6, 0.4))
	x, dst := laneBits(rng, 6*6*Lanes), make([]float32, 6*6*Lanes)
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		for _, n := range []int{1, Lanes} {
			if allocs := testing.AllocsPerRun(100, func() {
				s.MulLanes(dst, x, 6, n)
				s.MulLanesT(dst, x, 6, n)
			}); allocs != 0 {
				t.Fatalf("%s: lane stages at %d lanes allocate %v per call, want 0", name, n, allocs)
			}
		}
	}
}

// TestCompileLaneSchedRejectsNonFinite pins the finite-coefficient
// precondition the kernels' NaN argument rests on.
func TestCompileLaneSchedRejectsNonFinite(t *testing.T) {
	for _, c := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("coefficient %v compiled without a panic", c)
				}
			}()
			CompileLaneSched(MatFromSlice(1, 2, []float32{1, c}))
		}()
	}
}

// FuzzLaneStageMatchesGo draws a schedule shape, zero density, outer count
// and lane count, fills schedule and data from the seed (data in the
// special bit patterns of laneBits), and requires every tier to match the
// Go stage loop bit for bit in both forms.
func FuzzLaneStageMatchesGo(f *testing.F) {
	f.Add(int64(1), uint8(6), uint8(6), uint8(6), uint8(3), uint8(8))
	f.Add(int64(2), uint8(4), uint8(6), uint8(6), uint8(0), uint8(8))
	f.Add(int64(3), uint8(6), uint8(4), uint8(4), uint8(9), uint8(8))
	f.Add(int64(4), uint8(1), uint8(13), uint8(2), uint8(5), uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, rb, cb, ob, zb, nb uint8) {
		rng := rand.New(rand.NewSource(seed))
		rows, cols, outer := 1+int(rb)%12, 1+int(cb)%12, int(ob)%12
		n := 1 + int(nb)%Lanes
		if nb >= 128 {
			n = Lanes // the tier kernel's width, half of the inputs
		}
		s := CompileLaneSched(laneSchedMat(rng, rows, cols, float64(zb%10)/10))
		requireStagesMatchGo(t, "fuzz", s, outer, n, rng)
	})
}
