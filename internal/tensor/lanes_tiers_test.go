package tensor_test

import (
	"fmt"
	"math/rand"
	"testing"

	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// TestLaneStageTiersBitIdentical runs both stage forms of every schedule
// the engine compiles — the six matrices of each lane-tested transform and
// the predictor's Aᵀ, pos(Aᵀ), neg(Aᵀ) — at 8 lanes on every tier, over
// data with distinct NaN payloads, ±Inf, −0 and subnormals, and requires
// the bits of the Go stage loop. The outer counts are those the callers
// use: 1, M and T.
func TestLaneStageTiersBitIdentical(t *testing.T) {
	wide, err := winograd.MakeTransform(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(29))
	for _, tr := range []*winograd.Transform{winograd.F2x2_3x3, winograd.F4x4_3x3,
		winograd.F2x2_5x5, winograd.F6x6_3x3, wide} {
		pos, neg := winograd.PNSplit(tr.AT)
		for _, m := range []struct {
			name string
			mat  *tensor.Mat
		}{{"G", tr.G}, {"Gᵀ", tr.GT}, {"B", tr.B}, {"Bᵀ", tr.BT}, {"A", tr.A}, {"Aᵀ", tr.AT},
			{"pos(Aᵀ)", pos}, {"neg(Aᵀ)", neg}} {
			s := tensor.CompileLaneSched(m.mat)
			for _, outer := range []int{1, tr.M, tr.T} {
				tensor.RequireStagesMatchGo(t, fmt.Sprintf("%s %s", tr, m.name), s, outer, tensor.Lanes, rng)
			}
		}
	}
}
