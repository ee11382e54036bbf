package tensor

import (
	"math"
	"math/rand"
	"os"
	"testing"
)

// restoreGemmKernel re-applies the process's configured tier (environment
// override included) when the test finishes, so tier-switching tests leave
// the suite in the state the CI leg forced.
func restoreGemmKernel(t testing.TB) {
	t.Helper()
	if err := SelectGemmKernel(os.Getenv(EnvGemmKernel)); err != nil {
		t.Fatal(err)
	}
}

func TestGemmKernelSelection(t *testing.T) {
	defer restoreGemmKernel(t)

	names := GemmKernels()
	if len(names) == 0 || names[0] != "portable" {
		t.Fatalf("tier list must start with portable, got %v", names)
	}
	for _, name := range names {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatalf("selecting listed tier %q: %v", name, err)
		}
		if got := GemmKernel(); got != name {
			t.Fatalf("active tier %q after selecting %q", got, name)
		}
	}

	// Unknown tiers must fail without clobbering the active one.
	before := GemmKernel()
	if err := SelectGemmKernel("avx512-unobtainium"); err == nil {
		t.Fatal("expected error for unknown tier")
	}
	if got := GemmKernel(); got != before {
		t.Fatalf("failed selection changed the active tier: %q -> %q", before, got)
	}

	// Auto dispatch picks the last (fastest) listed tier.
	if err := SelectGemmKernel("auto"); err != nil {
		t.Fatal(err)
	}
	if got, want := GemmKernel(), names[len(names)-1]; got != want {
		t.Fatalf("auto dispatch selected %q, want the last listed tier %q", got, want)
	}
}

// edgeDims lists sizes along an axis of register-tile width R that end in
// every partial tile width: 1..R+1 (each width alone, and width 1 after a
// full tile) and 2R+1..3R, which clear smallGemm's two-tile floor so the
// public entry points reach the blocked path with every partial width.
func edgeDims(R int) []int {
	var out []int
	for d := 1; d <= R+1; d++ {
		out = append(out, d)
	}
	for d := 2*R + 1; d <= 3*R; d++ {
		out = append(out, d)
	}
	return out
}

// requireAllLayouts checks the NN/NT/TN entry points — and, on a tier with
// an assembly kernel, the direct gemmBlocked calls — against the naive
// reference for one m×k · k×n problem on the active tier g.
func requireAllLayouts(t *testing.T, ctx string, g *gemmKernel, rng *rand.Rand, m, n, k int) {
	t.Helper()
	a := randMat(rng, m, k, 0.15)
	b := randMat(rng, k, n, 0.15)
	bt, at := b.T(), a.T()
	want, got := NewMat(m, n), NewMat(m, n)
	var s GemmScratch

	MatMulNaiveInto(want, a, b)
	MatMulInto(got, a, b)
	requireBitIdentical(t, ctx+" NN", want, got)
	if g.kern != nil {
		gemmBlocked(got, a.Data, a.Cols, b.Data, b.Cols, m, n, k, false, false, &s, g)
		requireBitIdentical(t, ctx+" blocked NN", want, got)
	}

	MatMulNTNaiveInto(want, a, bt)
	MatMulNTInto(got, a, bt)
	requireBitIdentical(t, ctx+" NT", want, got)
	if g.kern != nil {
		gemmBlocked(got, a.Data, a.Cols, bt.Data, bt.Cols, m, n, k, false, true, &s, g)
		requireBitIdentical(t, ctx+" blocked NT", want, got)
	}

	MatMulTNNaiveInto(want, at, b)
	MatMulTNInto(got, at, b)
	requireBitIdentical(t, ctx+" TN", want, got)
	if g.kern != nil {
		gemmBlocked(got, at.Data, at.Cols, b.Data, b.Cols, m, n, k, true, false, &s, g)
		requireBitIdentical(t, ctx+" blocked TN", want, got)
	}
}

// TestGemmAllTiersTailShapes forces every tier this CPU supports and runs
// the NN/NT/TN entry points (plus direct blocked calls on assembly tiers)
// over every (mr < MR, nr < NR) edge-tile pair of the tier's own register
// tile, at depths on both sides of one and two KC blocks — the second depth
// block is where an edge tile must continue the stored partial sums — and
// over the tier's own MC/NC panel straddles, requiring bit-identity with
// the naive reference. Together with the CI tier matrix (which forces tiers
// via MPTWINO_GEMM_KERNEL at the process level) this pins the per-tier
// determinism contract.
func TestGemmAllTiersTailShapes(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(99))
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		for _, m := range edgeDims(g.mr) {
			for _, n := range edgeDims(g.nr) {
				for _, k := range []int{1, g.kc - 1, g.kc + 1, 2*g.kc + 1} {
					requireAllLayouts(t, name, g, rng, m, n, k)
				}
			}
		}
		for _, sh := range [][3]int{ // {m, n, k}
			{g.mc + 1, 2*g.nr + 3, g.kc + 1},
			{2*g.mr + 1, g.nc + 3, 19},
			{g.mc + 1, g.nc + 3, 3},
		} {
			requireAllLayouts(t, name+" panel straddle", g, rng, sh[0], sh[1], sh[2])
		}
	}
}

// TestGemmEdgeTilesAllocFree pins the edge-tile temporary to GemmScratch:
// on every tier, steady-state NN/NT/TN calls whose every register-tile row
// and column strip ends in an edge tile (and whose depth spans two KC
// blocks) allocate nothing. The kernel-tiers CI matrix gates it per tier.
func TestGemmEdgeTilesAllocFree(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(5))
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		m, n, k := 12*g.mr+2, 4*g.nr+3, g.kc+1
		a, b := randMat(rng, m, k, 0), randMat(rng, k, n, 0)
		bt, at := b.T(), a.T()
		dst := NewMat(m, n)
		var s GemmScratch
		calls := func() {
			MatMulIntoScratch(dst, a, b, &s)
			MatMulNTIntoScratch(dst, a, bt, &s)
			MatMulTNIntoScratch(dst, at, b, &s)
		}
		calls() // grow the packing panels
		if allocs := testing.AllocsPerRun(10, calls); allocs != 0 {
			t.Fatalf("%s: edge-heavy GEMMs allocate %v per run, want 0", name, allocs)
		}
	}
}

// TestGemmTierTilesFitEdgeTemporary checks that every listed tier's
// register tile fits the gemmMaxMR×gemmMaxNR edge-tile temporary.
func TestGemmTierTilesFitEdgeTemporary(t *testing.T) {
	for _, g := range gemmKernels {
		if g.mr < 1 || g.mr > gemmMaxMR || g.nr < 1 || g.nr > gemmMaxNR {
			t.Fatalf("%s: register tile %d×%d outside 1..%d × 1..%d",
				g.name, g.mr, g.nr, gemmMaxMR, gemmMaxNR)
		}
	}
}

// TestGemmTiersBitIdentical locks the headline dispatch guarantee: every
// listed tier produces the naive reference's bits for the same inputs, in
// every operand layout, so the auto choice (which varies by CPU) never
// changes results. The second case puts two NaN addends in one dot
// (payload 0x111 at k = 5, then 0x222 at k = 40): every path must keep the
// first, which is what the assembly kernels' accumulator-first add
// computes. Its a has no zeros, so the naive zero-skip drops no product.
func TestGemmTiersBitIdentical(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(1234))
	m, n, k := 129, 130, 2*gemmKC+17
	nanA, nanB := randMat(rng, 64, 64, 0), randMat(rng, 64, 64, 0)
	nanB.Set(5, 7, math.Float32frombits(0x7fc00111))
	nanB.Set(40, 7, math.Float32frombits(0x7fc00222))
	for _, c := range []struct {
		name string
		a, b *Mat
	}{
		{"finite", randMat(rng, m, k, 0.1), randMat(rng, k, n, 0.1)},
		{"nan", nanA, nanB},
	} {
		want := NewMat(c.a.Rows, c.b.Cols)
		MatMulNaiveInto(want, c.a, c.b)
		if bits := math.Float32bits(want.At(0, 7)); c.name == "nan" && bits != 0x7fc00111 {
			t.Fatalf("naive: NaN payload %08x, want the first addend's 7fc00111", bits)
		}
		at, bt := c.a.T(), c.b.T()
		for _, name := range GemmKernels() {
			if err := SelectGemmKernel(name); err != nil {
				t.Fatal(err)
			}
			for _, l := range []struct {
				op   string
				mul  func(dst, a, b *Mat)
				x, y *Mat
			}{
				{"NN", MatMulInto, c.a, c.b},
				{"NT", MatMulNTInto, c.a, bt},
				{"TN", MatMulTNInto, at, c.b},
				{"naive NT", MatMulNTNaiveInto, c.a, bt},
				{"naive TN", MatMulTNNaiveInto, at, c.b},
			} {
				got := NewMat(want.Rows, want.Cols)
				l.mul(got, l.x, l.y)
				requireBitIdentical(t, c.name+": naive vs "+name+" "+l.op, want, got)
			}
		}
	}
}

// TestGemmScratchPanelsPerTier pins the satellite fix: packing buffers are
// sized from the requesting tier's geometry, not compile-time constants, so
// wide tiers never overrun and narrow tiers reuse wide allocations.
func TestGemmScratchPanelsPerTier(t *testing.T) {
	defer restoreGemmKernel(t)
	var s GemmScratch
	maxAP, maxBP := 0, 0
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		ap, bp := s.panels(g)
		if len(ap) != g.mc*g.kc || len(bp) != g.kc*g.nc {
			t.Fatalf("%s: panels %d/%d, want %d/%d", name, len(ap), len(bp), g.mc*g.kc, g.kc*g.nc)
		}
		if g.mc*g.kc > maxAP {
			maxAP = g.mc * g.kc
		}
		if g.kc*g.nc > maxBP {
			maxBP = g.kc * g.nc
		}
	}
	// Buffers grow monotonically: after serving every tier the capacity is
	// the maximum requirement, not the last tier's.
	if cap(s.ap) < maxAP || cap(s.bp) < maxBP {
		t.Fatalf("scratch shrank below the widest tier: cap %d/%d, want ≥ %d/%d",
			cap(s.ap), cap(s.bp), maxAP, maxBP)
	}
}
