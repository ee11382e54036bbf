package tensor

import (
	"math"
	"math/rand"
	"testing"
)

func randMat(rng *rand.Rand, rows, cols int, zeroFrac float64) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		if rng.Float64() < zeroFrac {
			continue // leave a mix of exact zeros to exercise the skip paths
		}
		m.Data[i] = float32(rng.NormFloat64())
	}
	return m
}

func requireBitIdentical(t *testing.T, ctx string, want, got *Mat) {
	t.Helper()
	if want.Rows != got.Rows || want.Cols != got.Cols {
		t.Fatalf("%s: shape %dx%d vs %dx%d", ctx, want.Rows, want.Cols, got.Rows, got.Cols)
	}
	for i := range want.Data {
		if math.Float32bits(want.Data[i]) != math.Float32bits(got.Data[i]) {
			t.Fatalf("%s: element %d: %v (bits %08x) vs %v (bits %08x)",
				ctx, i, want.Data[i], math.Float32bits(want.Data[i]),
				got.Data[i], math.Float32bits(got.Data[i]))
		}
	}
}

// ulpClose reports whether got is within maxUlps float32 units in the last
// place of want (the scaled-tolerance fallback used by the fuzz target).
func ulpClose(want, got float32, maxUlps int32) bool {
	if math.Float32bits(want) == math.Float32bits(got) {
		return true
	}
	wi := int32(math.Float32bits(want))
	gi := int32(math.Float32bits(got))
	if wi < 0 {
		wi = math.MinInt32 - wi
	}
	if gi < 0 {
		gi = math.MinInt32 - gi
	}
	d := wi - gi
	if d < 0 {
		d = -d
	}
	return d <= maxUlps
}

// The blocked kernel must be bit-identical to the naive reference for
// finite inputs: every output element's float32 accumulation chain is the
// same ascending-k chain, and the reference's zero-skip only elides ±0
// addends. Shapes straddle every blocking boundary (MR/NR strip remainders,
// MC/KC/NC panel remainders) and the small-dispatch threshold. The test
// runs against whatever tier is active (MPTWINO_GEMM_KERNEL included), so
// the CI tier matrix re-proves the contract per tier. The direct blocked
// calls need an assembly kernel and are skipped on the portable tier, which
// never reaches gemmBlocked; the public entry points run on every tier.
func TestBlockedGemmBitIdenticalToNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{ // {m, n, k}
		{1, 1, 1}, {3, 5, 7}, {4, 4, 4}, {5, 9, 3},
		{gemmMR, gemmNR, 10}, {gemmMR + 1, gemmNR + 1, 10},
		{2*gemmMR - 1, 2*gemmNR - 1, 33},
		{63, 65, 67}, {128, 64, 64}, {129, 65, 257},
		{gemmMC, gemmNR * 2, gemmKC}, {gemmMC + 1, 37, gemmKC + 1},
		{40, gemmNC + 3, 19}, {97, 101, 103},
	}
	g := activeGemm.Load()
	for _, sh := range shapes {
		requireAllLayouts(t, g.name, g, rng, sh[0], sh[1], sh[2])
	}
}

// All three variants compute the same mathematical product; across variants
// only the (fixed, per-variant) reduction shape may differ, so results must
// agree within a few ulps.
func TestGemmVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, sh := range [][3]int{{33, 29, 41}, {130, 70, 64}, {9, 520, 17}} {
		m, n, k := sh[0], sh[1], sh[2]
		a := randMat(rng, m, k, 0.1)
		b := randMat(rng, k, n, 0.1)
		nn := MatMul(a, b)
		nt := MatMulNT(a, b.T())
		tn := MatMulTN(a.T(), b)
		for i := range nn.Data {
			if !ulpClose(nn.Data[i], nt.Data[i], 128) {
				t.Fatalf("NT diverges at %d: %v vs %v", i, nn.Data[i], nt.Data[i])
			}
			if !ulpClose(nn.Data[i], tn.Data[i], 128) {
				t.Fatalf("TN diverges at %d: %v vs %v", i, nn.Data[i], tn.Data[i])
			}
		}
	}
}

// The blocked result must not depend on where the panel boundaries fall.
// gemmBlocked is deliberately written so the k-chain per element is blocking
// independent; this cross-checks the seeded-accumulator logic by comparing
// a multi-KC-block problem against the naive single-chain reference with
// adversarial content in dst beforehand (Into semantics: dst is overwritten).
func TestBlockedGemmOverwritesDst(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	m, n, k := 70, 40, 2*gemmKC+17
	a := randMat(rng, m, k, 0)
	b := randMat(rng, k, n, 0)
	want := NewMat(m, n)
	MatMulNaiveInto(want, a, b)
	got := NewMat(m, n)
	for i := range got.Data {
		got.Data[i] = float32(math.NaN())
	}
	MatMulInto(got, a, b)
	requireBitIdentical(t, "dirty dst", want, got)
}

func TestMatMulNTTNShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected shape panic")
		}
	}()
	MatMulNTInto(NewMat(2, 3), NewMat(2, 4), NewMat(3, 5))
}

func TestTIntoCloneInto(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	m := randMat(rng, 5, 8, 0)
	tr := NewMat(8, 5)
	m.TInto(tr)
	requireBitIdentical(t, "TInto", m.T(), tr)
	cp := NewMat(5, 8)
	m.CloneInto(cp)
	requireBitIdentical(t, "CloneInto", m, cp)
}

// FuzzBlockedGemmMatchesNaive drives random shapes (biased toward blocking
// remainders) and random data through the NN/NT/TN entry points and, on
// every tier with an assembly kernel, the blocked driver, requiring
// bit-identity with the naive reference. The depth byte maps to k up to
// 766, past two KC blocks of every tier, so edge tiles are exercised on the
// later depth blocks where they must continue the stored partial sums.
func FuzzBlockedGemmMatchesNaive(f *testing.F) {
	f.Add(int64(1), uint8(33), uint8(29), uint8(41))
	f.Add(int64(2), uint8(130), uint8(70), uint8(255))
	f.Add(int64(3), uint8(4), uint8(4), uint8(1))
	// m % MR ≠ 0 and n % NR ≠ 0 on every tier, with k past one and two KC
	// blocks: the engine's 98-row edge strip and a deeper odd shape.
	f.Add(int64(4), uint8(97), uint8(34), uint8(100))
	f.Add(int64(5), uint8(17), uint8(10), uint8(180))
	f.Fuzz(func(t *testing.T, seed int64, mb, nb, kb uint8) {
		m, n, k := int(mb)+1, int(nb)+1, 3*int(kb)+1
		rng := rand.New(rand.NewSource(seed))
		// Every tier this CPU can run must match the naive reference; the
		// active tier is restored by the deferred cleanup.
		defer restoreGemmKernel(t)
		for _, name := range GemmKernels() {
			if err := SelectGemmKernel(name); err != nil {
				t.Fatal(err)
			}
			requireAllLayouts(t, "fuzz "+name, activeGemm.Load(), rng, m, n, k)
		}
	})
}
