// Package allocflow is the golden testdata for the allocflow analyzer:
// allocation constructs (and unanalyzable calls) written in a noalloc
// root (a *Into kernel or a //mptlint:noalloc function) or reachable on
// call paths from it. Reports land inside the root: at the construct, or
// at the call site, the actionable frame.
package allocflow

import (
	"fmt"
	"strconv"

	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
	"testdata/allocflow/helpers"
)

// grow is an allocating local helper one hop from the roots.
func grow(xs []float64) []float64 {
	ys := make([]float64, 2*len(xs))
	copy(ys, xs)
	return ys
}

// chainA -> chainB is a two-hop allocating path.
func chainA(xs []float64) []float64 { return chainB(xs) }

func chainB(xs []float64) []float64 {
	return append(xs, 0)
}

// cleanHelper is allocation-free.
func cleanHelper(xs []float64) float64 {
	var s float64
	for _, v := range xs {
		s += v
	}
	return s
}

// localHopInto calls an allocating helper in the same package.
func localHopInto(dst, src []float64) {
	tmp := grow(src) // want `localHopInto: allocation reachable on a noalloc path via grow: make allocates`
	copy(dst, tmp)
}

// twoHopInto reaches the allocation through an intermediate frame; the
// chain in the message names both hops.
func twoHopInto(dst, src []float64) {
	tmp := chainA(src) // want `twoHopInto: allocation reachable on a noalloc path via chainA → chainB: append allocates`
	copy(dst, tmp)
}

// crossPkgInto reaches allocations in another package — the case a
// per-function AST walk can never see.
func crossPkgInto(dst, src []float64) {
	tmp := helpers.Scale(src, 2) // want `crossPkgInto: allocation reachable on a noalloc path via Scale: make allocates`
	copy(dst, tmp)
	deep := helpers.Deep(src) // want `crossPkgInto: allocation reachable on a noalloc path via Deep → deeper: append allocates`
	copy(dst, deep)
}

// cleanInto only calls allocation-free helpers (local and cross-package).
func cleanInto(dst, src []float64) {
	helpers.ScaleInPlace(src, 2)
	dst[0] = cleanHelper(src)
}

// dynamicInto calls through a function-valued parameter: allocflow cannot
// see the callee, which is exactly how an allocation sneaks in.
func dynamicInto(dst, src []float64, f func(float64) float64) {
	for i := range src {
		dst[i] = f(src[i]) // want `dynamicInto: call through function value "f" on a noalloc path`
	}
}

// externalInto calls an out-of-module function that is not on the
// sanctioned-callee list: allocflow has no body to analyze, so the call
// itself is the finding.
func externalInto(dst []float64) {
	n := len(strconv.Itoa(len(dst))) // want `externalInto: calls strconv.Itoa on a noalloc path; its body is outside the program`
	dst[0] = float64(n)
}

// coldPathInto only reaches the allocating helper inside a panic guard:
// a shape-check error path, never executed at steady state.
func coldPathInto(dst, src []float64) {
	if len(dst) != len(src) {
		_ = grow(src)
		panic("shape mismatch")
	}
	copy(dst, src)
}

// annotatedRoot is a root via the //mptlint:noalloc directive rather than
// the *Into suffix.
//
//mptlint:noalloc
func annotatedRoot(dst, src []float64) {
	tmp := grow(src) // want `annotatedRoot: allocation reachable on a noalloc path via grow: make allocates`
	copy(dst, tmp)
}

// notARoot has no suffix and no directive: free to allocate via helpers.
func notARoot(xs []float64) []float64 {
	return grow(xs)
}

// suppressedInto documents an accepted one-off with a reasoned directive.
func suppressedInto(dst, src []float64) {
	tmp := grow(src) //nolint:allocflow -- testdata: cold init path, called once before the steady state
	copy(dst, tmp)
}

// Constructs written in the root itself.

func scaleInto(dst, src []float64, k float64) {
	if len(dst) != len(src) {
		panic(fmt.Sprintf("shape mismatch %d != %d", len(dst), len(src))) // cold panic guard: allowed
	}
	for i, v := range src {
		dst[i] = k * v
	}
}

func badMakeInto(dst []float64, src []float64) {
	tmp := make([]float64, len(src)) // want `badMakeInto: make allocates on a noalloc path`
	copy(tmp, src)
	copy(dst, tmp)
}

func badAppendInto(dst *[]float64, v float64) {
	*dst = append(*dst, v) // want `badAppendInto: append allocates on a noalloc path`
}

func badNewInto(dst *float64) {
	p := new(float64) // want `badNewInto: new allocates on a noalloc path`
	*dst = *p
}

type vec struct{ x, y float64 }

func badLiteralsInto(dst []float64) {
	buf := []float64{1, 2, 3} // want `slice literal allocates`
	m := map[int]int{1: 2}    // want `map literal allocates`
	v := &vec{1, 2}           // want `&composite literal allocates`
	dst[0] = buf[0] + float64(m[1]) + v.x
}

// A plain struct value literal stays on the stack: not flagged.
func valueLiteralInto(dst []float64) {
	v := vec{1, 2}
	dst[0] = v.x + v.y
}

// The closure allocates, and the call through it is opaque.
func badClosureInto(dst, src []float64) {
	add := func(i int) { dst[i] += src[i] } // want `func literal \(closure\) allocates`
	for i := range src {
		add(i) // want `call through function value "add" on a noalloc path`
	}
}

// The pool fan-out closure is the sanctioned exception: one amortized
// allocation per kernel call, closure-free on the single-worker branch.
func parallelClosureInto(dst, src []float64) {
	parallel.ForEachWorker(0, len(src), func(worker, i int) {
		dst[i] = 2 * src[i]
	})
}

// Functions not named *Into and not annotated are out of scope.
func builderHelper(n int) []float64 {
	return make([]float64, n)
}

// The //mptlint:noalloc directive opts a function in by annotation even
// though its name does not end in Into.
//
//mptlint:noalloc
func annotatedKernel(dst []float64) {
	tmp := make([]float64, 4) // want `annotatedKernel: make allocates`
	copy(dst, tmp)
}

func suppressedMakeInto(dst []float64) {
	tmp := make([]float64, 1) //nolint:allocflow -- testdata: first-call growth, amortized away at steady state
	copy(dst, tmp)
}

func badSprintfInto(dst []byte, x int) {
	s := fmt.Sprintf("%d", x) // want `calls fmt.Sprintf on a noalloc path`
	copy(dst, s)
}

// Telemetry's nil-safe atomic updates are the sanctioned way to count work
// inside a kernel: handles resolved by the caller, bumped in the loop.
func instrumentedInto(dst, src []float64, flops *telemetry.Counter, occ *telemetry.Gauge, util *telemetry.Histogram) {
	for i, v := range src {
		dst[i] = 2 * v
	}
	flops.Add(int64(len(src)))
	flops.Inc()
	occ.Set(1)
	occ.Max(int64(len(src)))
	util.Observe(0.5)
}

// Everything else in the telemetry API locks or allocates and must stay
// out of kernel scope: registry lookups, tracer emission.
func badTelemetryLookupInto(dst []float64, reg *telemetry.Registry, tr *telemetry.Tracer) {
	reg.Counter("flops").Add(1)                // want `calls \(\*telemetry.Registry\).Counter on a noalloc path`
	reg.Gauge("occ").Set(2)                    // want `calls \(\*telemetry.Registry\).Gauge on a noalloc path`
	tr.Instant(0, 0, "tick", "kernel", 1, nil) // want `calls \(\*telemetry.Tracer\).Instant on a noalloc path`
	dst[0] = 1
}
