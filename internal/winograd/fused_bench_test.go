package winograd

import (
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

func BenchmarkSandwichFused(b *testing.B) {
	tr := F4x4_3x3
	rng := tensor.NewRNG(6)
	x := tensor.NewMat(tr.T, tr.T)
	for i := range x.Data {
		x.Data[i] = float32(rng.NormFloat64())
	}
	dst := tensor.NewMat(tr.T, tr.T)
	tmp := make([]float32, tr.TmpLen())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		laneSandwich(dst.Data, tr.fused.bt, tr.fused.bt, x.Data, 1, tmp)
	}
}

// BenchmarkDomainTransforms runs the four lane-batched Domain transforms
// of one F(4×4,3×3) layer (32 channels, 28×28, batch 2) on one worker.
func BenchmarkDomainTransforms(b *testing.B) {
	prev := parallel.SetDefaultWorkers(1)
	defer parallel.SetDefaultWorkers(prev)
	p := conv.Params{In: 32, Out: 32, K: 3, Pad: 1, H: 28, W: 28}
	tl, err := NewTiling(F4x4_3x3, p)
	if err != nil {
		b.Fatal(err)
	}
	rng := tensor.NewRNG(7)
	x := tensor.New(2, p.In, p.H, p.W)
	rng.FillNormal(x, 0, 1)
	y := tensor.New(2, p.Out, p.OutH(), p.OutW())
	dx := tensor.New(2, p.In, p.H, p.W)
	d := NewDomain(tl, 2, p.In)
	sc := NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tl.TransformInputInto(d, x, sc)
		tl.InverseOutputInto(y, d, sc)
		tl.TransformOutputGradInto(d, y, sc)
		tl.InverseInputGradInto(dx, d, sc)
	}
}
