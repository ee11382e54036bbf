package tensor

import (
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

// TestGemmAllTiersTailShapes forces every tier this CPU supports and runs
// the full NN/NT/TN entry-point set over shapes straddling each tier's own
// register-tile boundaries (m,n,k ∈ {1, MR−1, MR, MR+1, 2·MR+1, …}),
// requiring bit-identity with the naive reference. Together with the
// CI tier matrix (which forces tiers via MPTWINO_GEMM_KERNEL at the process
// level) this pins the per-tier determinism contract.
func TestGemmAllTiersTailShapes(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(99))
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		g := activeGemm.Load()
		dims := []int{1, g.mr - 1, g.mr, g.mr + 1, 2*g.mr + 1, g.nr - 1, g.nr, g.nr + 1, 2*g.nr + 1, 3 * g.nr}
		ks := []int{1, 2, g.kc - 1, g.kc, g.kc + 1, 37}
		for _, m := range dims {
			if m < 1 {
				continue
			}
			for _, n := range dims {
				if n < 1 {
					continue
				}
				for _, k := range ks {
					a := randMat(rng, m, k, 0.15)
					b := randMat(rng, k, n, 0.15)
					want := NewMat(m, n)
					MatMulNaiveInto(want, a, b)
					got := NewMat(m, n)
					MatMulInto(got, a, b)
					requireBitIdentical(t, name+" NN", want, got)

					bt := b.T()
					wantNT := NewMat(m, n)
					MatMulNTNaiveInto(wantNT, a, bt)
					got.Zero()
					MatMulNTInto(got, a, bt)
					requireBitIdentical(t, name+" NT", wantNT, got)

					at := a.T()
					wantTN := NewMat(m, n)
					MatMulTNNaiveInto(wantTN, at, b)
					got.Zero()
					MatMulTNInto(got, at, b)
					requireBitIdentical(t, name+" TN", wantTN, got)
				}
			}
		}
	}
}

// TestGemmTiersBitIdentical locks the headline dispatch guarantee: every
// listed tier produces the naive reference's bits for the same inputs, so
// the auto choice (which varies by CPU) never changes results.
func TestGemmTiersBitIdentical(t *testing.T) {
	defer restoreGemmKernel(t)
	rng := rand.New(rand.NewSource(1234))
	m, n, k := 129, 130, 2*gemmKC+17
	a := randMat(rng, m, k, 0.1)
	b := randMat(rng, k, n, 0.1)
	want := NewMat(m, n)
	MatMulNaiveInto(want, a, b)
	for _, name := range GemmKernels() {
		if err := SelectGemmKernel(name); err != nil {
			t.Fatal(err)
		}
		got := NewMat(m, n)
		MatMulInto(got, a, b)
		requireBitIdentical(t, "naive vs "+name, want, got)
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
