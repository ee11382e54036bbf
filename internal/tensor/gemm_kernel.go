package tensor

import (
	"fmt"
	"os"
	"strings"
	"sync/atomic"
)

// Runtime GEMM dispatch. The blocked driver in gemm.go is parameterized by
// a gemmKernel — one register-tiled micro-kernel plus the cache-panel
// geometry tuned for it, and the lane-stage kernel of lanes.go — and the
// process selects the fastest tier the CPU supports at init (raw CPUID on
// amd64, no third-party modules). The determinism contract is per-element:
// every tier computes the same ascending-k float32 mul+add chain as
// MatMulNaiveInto (or laneStageGo), lane-parallel across output columns
// only, so switching tiers (or machines) never changes a result bit. Every
// Go reference loop rounds each product explicitly (acc += float32(a·b)),
// because the Go spec lets a compiler fuse a bare acc += a·b into one FMA,
// which arm64 does; `make nofma` checks the listing.
//
// Tier geometry (per micro-kernel, amd64):
//
//	sse2  4×8  MC=128 KC=256 NC=512   A panel 128 KB (L2), B strip 8 KB (L1)
//	avx2  8×8  MC=192 KC=256 NC=1024  A panel 192 KB (L2), B strip 8 KB (L1)
//
// The portable tier has no assembly kernels and keeps every product on the
// reference loops — the exact behavior of a -tags purego or non-amd64
// build. MPTWINO_GEMM_KERNEL selects the lane-stage kernel with the GEMM
// kernel: both belong to the tier.

// EnvGemmKernel is the environment variable that forces a dispatch tier
// (portable|sse2|avx2); empty or "auto" selects the fastest tier the CPU
// supports. A forced tier this build cannot run here panics at init with
// the available list — CI legs probe availability first (cmd/gemmprobe).
const EnvGemmKernel = "MPTWINO_GEMM_KERNEL"

// gemmKernel is one dispatch tier: a micro-kernel and its blocking.
type gemmKernel struct {
	name   string
	mr, nr int // micro-kernel tile (A strip height × B strip width)
	mc, kc int // packed A panel: mc×kc, mc a multiple of mr
	nc     int // packed B panel: kc×nc, nc a multiple of nr

	// kern computes one mr×nr tile over a depth block, seeding its
	// accumulators from dst (see kernel4x8); gemmBlocked runs it in place
	// on full tiles and on a seeded temporary for edge tiles. nil marks
	// the portable tier: no blocked path, every product stays on the naive
	// reference loops.
	kern func(dst *float32, ldd, kc int, as, bs *float32)

	// lanes runs one whole lane stage (lanes.go) at n = Lanes over an
	// extent LaneSched has already checked. nil marks the portable tier,
	// whose stages run the Go loop laneStageGo.
	lanes func(dst, src *float32, terms *laneTerm, off *int32, rows, outer, dOuter, dRow, sOuter, kStride int)
}

// activeGemm is the tier every MatMul* entry point reads (atomically, so
// tests may switch tiers without racing in-flight GEMMs; a GEMM reads it
// once at entry and stays on that tier throughout).
var activeGemm atomic.Pointer[gemmKernel]

func init() {
	// One-time dispatch init: CPUID probe (gemmKernels, per-platform) plus
	// the environment override. Everything downstream is allocation-free.
	if err := SelectGemmKernel(os.Getenv(EnvGemmKernel)); err != nil {
		panic(err)
	}
}

// SelectGemmKernel forces the GEMM dispatch tier by name ("" or "auto"
// restores the CPU-probed default). It errors — without changing the
// active tier — when the name is not a tier this build can run here.
func SelectGemmKernel(name string) error {
	if name == "" || name == "auto" {
		activeGemm.Store(autoGemmKernel())
		return nil
	}
	for _, g := range gemmKernels {
		if g.name == name {
			activeGemm.Store(g)
			return nil
		}
	}
	return fmt.Errorf("tensor: %s=%q is not a GEMM tier this build can run here (available: %s)",
		EnvGemmKernel, name, strings.Join(GemmKernels(), "|"))
}

// autoGemmKernel returns the fastest tier the CPU supports: the tier list
// is ordered portable-first, fastest-last.
func autoGemmKernel() *gemmKernel { return gemmKernels[len(gemmKernels)-1] }

// GemmKernel returns the active dispatch tier's name — the value benchdiff
// records in baseline metadata.
func GemmKernel() string { return activeGemm.Load().name }

// GemmKernels lists the tiers this CPU can run, in dispatch-preference
// order (portable first, the auto choice last).
func GemmKernels() []string {
	out := make([]string, len(gemmKernels))
	for i, g := range gemmKernels {
		out[i] = g.name
	}
	return out
}
