package winograd

import (
	"fmt"
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// The per-tile Domain loops below are the reference the lane loops must
// match bit for bit: one tile of one channel at a time, extracted through
// tensor.At, transformed by the naive two-multiply sandwich (sandwichRef,
// bit-identical to the compiled schedules — fused_test.go), and stored
// through Mat.Set / tensor.Add.

func refExtractInputTile(tl *Tiling, dst *tensor.Mat, x *tensor.Tensor, b, c, th, tw int) {
	t := tl.Tr.T
	oh, ow := th*tl.Tr.M-tl.P.Pad, tw*tl.Tr.M-tl.P.Pad
	for r := 0; r < t; r++ {
		for cc := 0; cc < t; cc++ {
			ih, iw := oh+r, ow+cc
			var v float32
			if ih >= 0 && ih < tl.P.H && iw >= 0 && iw < tl.P.W {
				v = x.At(b, c, ih, iw)
			}
			dst.Set(r, cc, v)
		}
	}
}

func refScatterAddInputTile(tl *Tiling, x *tensor.Tensor, src *tensor.Mat, b, c, th, tw int) {
	t := tl.Tr.T
	oh, ow := th*tl.Tr.M-tl.P.Pad, tw*tl.Tr.M-tl.P.Pad
	for r := 0; r < t; r++ {
		for cc := 0; cc < t; cc++ {
			ih, iw := oh+r, ow+cc
			if ih >= 0 && ih < tl.P.H && iw >= 0 && iw < tl.P.W {
				x.Add(b, c, ih, iw, src.At(r, cc))
			}
		}
	}
}

func refExtractOutputTile(tl *Tiling, dst *tensor.Mat, y *tensor.Tensor, b, c, th, tw int) {
	m := tl.Tr.M
	for r := 0; r < m; r++ {
		for cc := 0; cc < m; cc++ {
			yy, xx := th*m+r, tw*m+cc
			var v float32
			if yy < tl.P.OutH() && xx < tl.P.OutW() {
				v = y.At(b, c, yy, xx)
			}
			dst.Set(r, cc, v)
		}
	}
}

func refScatterOutputTile(tl *Tiling, y *tensor.Tensor, src *tensor.Mat, b, c, th, tw int) {
	m := tl.Tr.M
	for r := 0; r < m; r++ {
		for cc := 0; cc < m; cc++ {
			yy, xx := th*m+r, tw*m+cc
			if yy < tl.P.OutH() && xx < tl.P.OutW() {
				y.Set(b, c, yy, xx, src.At(r, cc))
			}
		}
	}
}

// refEachTile visits every (image, channel, tile) in the per-tile loops'
// order: image, channel, tile row, tile column.
func refEachTile(tl *Tiling, batch, channels int, f func(b, c, th, tw int)) {
	for b := 0; b < batch; b++ {
		for c := 0; c < channels; c++ {
			for th := 0; th < tl.TilesH; th++ {
				for tw := 0; tw < tl.TilesW; tw++ {
					f(b, c, th, tw)
				}
			}
		}
	}
}

func refStoreTile(d *Domain, w *tensor.Mat, b, c, th, tw int) {
	row := d.row(b, th, tw)
	for e, v := range w.Data {
		d.El[e].Set(row, c, v)
	}
}

func refLoadTile(d *Domain, b, c, th, tw int) *tensor.Mat {
	t := d.Tiling.Tr.T
	tile := tensor.NewMat(t, t)
	row := d.row(b, th, tw)
	for e := range d.El {
		tile.Data[e] = d.El[e].At(row, c)
	}
	return tile
}

func refTransformInput(tl *Tiling, x *tensor.Tensor) *Domain {
	tr := tl.Tr
	d := NewDomain(tl, x.N, x.C)
	patch := tensor.NewMat(tr.T, tr.T)
	refEachTile(tl, x.N, x.C, func(b, c, th, tw int) {
		refExtractInputTile(tl, patch, x, b, c, th, tw)
		refStoreTile(d, sandwichRef(tr.BT, patch, tr.B), b, c, th, tw)
	})
	return d
}

func refTransformOutputGrad(tl *Tiling, dy *tensor.Tensor) *Domain {
	tr := tl.Tr
	d := NewDomain(tl, dy.N, dy.C)
	patch := tensor.NewMat(tr.M, tr.M)
	refEachTile(tl, dy.N, dy.C, func(b, c, th, tw int) {
		refExtractOutputTile(tl, patch, dy, b, c, th, tw)
		refStoreTile(d, sandwichRef(tr.A, patch, tr.AT), b, c, th, tw)
	})
	return d
}

func refInverseOutput(tl *Tiling, d *Domain) *tensor.Tensor {
	tr := tl.Tr
	y := tensor.New(d.B, d.C, tl.P.OutH(), tl.P.OutW())
	refEachTile(tl, d.B, d.C, func(b, c, th, tw int) {
		refScatterOutputTile(tl, y, sandwichRef(tr.AT, refLoadTile(d, b, c, th, tw), tr.A), b, c, th, tw)
	})
	return y
}

func refInverseInputGrad(tl *Tiling, d *Domain) *tensor.Tensor {
	tr := tl.Tr
	dx := tensor.New(d.B, d.C, tl.P.H, tl.P.W)
	refEachTile(tl, d.B, d.C, func(b, c, th, tw int) {
		refScatterAddInputTile(tl, dx, sandwichRef(tr.B, refLoadTile(d, b, c, th, tw), tr.BT), b, c, th, tw)
	})
	return dx
}

func refTransformWeights(tr *Transform, w *tensor.Tensor) *Weights {
	ww := NewWeights(tr, w.C, w.N)
	f := tensor.NewMat(tr.R, tr.R)
	for j := 0; j < w.N; j++ {
		for i := 0; i < w.C; i++ {
			for kh := 0; kh < tr.R; kh++ {
				for kw := 0; kw < tr.R; kw++ {
					f.Set(kh, kw, w.At(j, i, kh, kw))
				}
			}
			for e, v := range sandwichRef(tr.G, f, tr.GT).Data {
				ww.El[e].Set(i, j, v)
			}
		}
	}
	return ww
}

func refToSpatialGrad(w *Weights) *tensor.Tensor {
	tr := w.Tr
	out := tensor.New(w.Out, w.In, tr.R, tr.R)
	tile := tensor.NewMat(tr.T, tr.T)
	for j := 0; j < w.Out; j++ {
		for i := 0; i < w.In; i++ {
			for e := range w.El {
				tile.Data[e] = w.El[e].At(i, j)
			}
			g := sandwichRef(tr.GT, tile, tr.G)
			for kh := 0; kh < tr.R; kh++ {
				for kw := 0; kw < tr.R; kw++ {
					out.Set(j, i, kh, kw, g.At(kh, kw))
				}
			}
		}
	}
	return out
}

// laneCase is one geometry the lane loops are checked on.
type laneCase struct {
	tr          *Transform
	c, h, w     int
	pad, batch  int
	seed        uint64
	workersList []int
}

// checkLaneCase runs the four Domain lane paths and the two weight
// transforms under each worker count and compares every output with the
// per-tile reference bit for bit.
func checkLaneCase(t *testing.T, lc laneCase) {
	t.Helper()
	p := conv.Params{In: lc.c, Out: lc.c, K: lc.tr.R, Pad: lc.pad, H: lc.h, W: lc.w}
	tl, err := NewTiling(lc.tr, p)
	if err != nil {
		t.Fatal(err)
	}
	rng := tensor.NewRNG(lc.seed)
	x := tensor.New(lc.batch, p.In, p.H, p.W)
	dy := tensor.New(lc.batch, p.Out, p.OutH(), p.OutW())
	rng.FillNormal(x, 0, 1)
	rng.FillNormal(dy, 0, 1)
	// Exact zeros, as ReLU-masked activations and gradients carry them.
	for i := 0; i < len(x.Data); i += 3 {
		x.Data[i] = 0
	}
	for i := 1; i < len(dy.Data); i += 4 {
		dy.Data[i] = 0
	}
	yd := NewDomain(tl, lc.batch, p.Out)
	dxd := NewDomain(tl, lc.batch, p.In)
	for e := range yd.El {
		for i := range yd.El[e].Data {
			yd.El[e].Data[i] = float32(rng.NormFloat64())
		}
		for i := range dxd.El[e].Data {
			dxd.El[e].Data[i] = float32(rng.NormFloat64())
		}
	}
	sw := tensor.New(p.Out, p.In, p.K, p.K)
	rng.FillNormal(sw, 0, 1)
	wantW := refTransformWeights(lc.tr, sw)
	wantSW := refToSpatialGrad(wantW)
	wantX := refTransformInput(tl, x)
	wantDY := refTransformOutputGrad(tl, dy)
	wantY := refInverseOutput(tl, yd)
	wantDX := refInverseInputGrad(tl, dxd)

	xIn, dyIn := x.Clone(), dy.Clone()
	for _, workers := range lc.workersList {
		prev := parallel.SetDefaultWorkers(workers)
		ctx := fmt.Sprintf("%s C=%d %dx%d pad=%d workers=%d", lc.tr, lc.c, lc.h, lc.w, lc.pad, workers)
		ww := TransformWeights(lc.tr, sw)
		for e := range ww.El {
			if !floatBitsEqual(ww.El[e].Data, wantW.El[e].Data) {
				t.Errorf("%s: TransformWeights element %d differs from the per-filter loop", ctx, e)
			}
		}
		if !tensorBitsEqual(wantW.ToSpatialGrad(), wantSW) {
			t.Errorf("%s: ToSpatialGrad differs from the per-filter loop", ctx)
		}
		if !domainBitsEqual(tl.TransformInput(x), wantX) {
			t.Errorf("%s: TransformInput differs from the per-tile loop", ctx)
		}
		if !domainBitsEqual(tl.TransformOutputGrad(dy), wantDY) {
			t.Errorf("%s: TransformOutputGrad differs from the per-tile loop", ctx)
		}
		if !tensorBitsEqual(tl.InverseOutput(yd), wantY) {
			t.Errorf("%s: InverseOutput differs from the per-tile loop", ctx)
		}
		if !tensorBitsEqual(tl.InverseInputGrad(dxd), wantDX) {
			t.Errorf("%s: InverseInputGrad differs from the per-tile loop", ctx)
		}
		parallel.SetDefaultWorkers(prev)
	}
	if !tensorBitsEqual(x, xIn) || !tensorBitsEqual(dy, dyIn) {
		t.Errorf("%s C=%d: a lane path wrote to its input", lc.tr, lc.c)
	}
}

func domainBitsEqual(a, b *Domain) bool {
	if a.B != b.B || a.C != b.C || len(a.El) != len(b.El) {
		return false
	}
	for e := range a.El {
		if !floatBitsEqual(a.El[e].Data, b.El[e].Data) {
			return false
		}
	}
	return true
}

func tensorBitsEqual(a, b *tensor.Tensor) bool {
	return a.SameShape(b) && floatBitsEqual(a.Data, b.Data)
}

func floatBitsEqual(a, b []float32) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return true
}

// handAssembled is F(2×2,3×3) built outside MakeTransform: it carries no
// compiled schedules, so NewTiling compiles its own.
func handAssembled() *Transform {
	src := F2x2_3x3
	return &Transform{M: src.M, R: src.R, T: src.T,
		G: src.G, BT: src.BT, AT: src.AT, B: src.B, A: src.A, GT: src.GT}
}

// laneTransforms are the transforms the lane oracle covers: the paper's,
// the wide F(6×6,3×3) at the fusedMaxT boundary, F(6,5) past it, and a
// hand-assembled one (the last two compile their schedules in NewTiling).
func laneTransforms(t testing.TB) []*Transform {
	wide, err := MakeTransform(6, 5)
	if err != nil {
		t.Fatal(err)
	}
	return []*Transform{F2x2_3x3, F4x4_3x3, F2x2_5x5, F6x6_3x3, wide, handAssembled()}
}

// TestLaneTransformsMatchPerTile pins the four lane-batched Domain paths
// and the weight transforms bit-identical to the per-tile loops: channel
// counts below, at and past one lane batch (tails of C mod 8 included),
// with and without padding, at worker counts {1, 2, 8}.
func TestLaneTransformsMatchPerTile(t *testing.T) {
	for _, tr := range laneTransforms(t) {
		for _, c := range []int{1, 3, 8, 13, 17} {
			for _, pad := range []int{0, (tr.R - 1) / 2} {
				checkLaneCase(t, laneCase{tr: tr, c: c, h: tr.R + 6, w: tr.R + 3, pad: pad, batch: 3,
					seed: uint64(100*tr.T + c + pad), workersList: []int{1, 2, 8}})
			}
		}
	}
}

// FuzzLaneTransformsMatchPerTile draws a transform, channel count, feature
// map size and padding, and compares the lane paths with the per-tile
// reference.
func FuzzLaneTransformsMatchPerTile(f *testing.F) {
	f.Add(uint8(0), uint8(12), uint8(3), uint8(5), true, uint64(1))
	f.Add(uint8(4), uint8(16), uint8(0), uint8(2), false, uint64(2))
	f.Add(uint8(5), uint8(7), uint8(9), uint8(1), true, uint64(3))
	trs := laneTransforms(f)
	f.Fuzz(func(t *testing.T, sel, c, h, w uint8, same bool, seed uint64) {
		tr := trs[int(sel)%len(trs)]
		pad := 0
		if same {
			pad = (tr.R - 1) / 2
		}
		checkLaneCase(t, laneCase{tr: tr, c: 1 + int(c)%24, h: tr.R + int(h)%12, w: tr.R + int(w)%12,
			pad: pad, batch: 2, seed: seed, workersList: []int{1, 2}})
	})
}
