package main

import (
	"fmt"
	"math"
	"strings"

	"mptwino/internal/mpt"
	"mptwino/internal/quant"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// tctx is what one traced op records into.
type tctx struct {
	tr  *tracer
	acc *layerAcc
}

// stage times f as a replayed stage under parent and adds its seconds to
// the "<name>_s" metric. The span's category is the module in name.
func (c tctx) stage(name string, parent int, f func()) float64 {
	cat, _, _ := strings.Cut(name, ".")
	id := c.tr.begin(name, cat, tidReplay, parent)
	f()
	d := c.tr.end(id)
	c.acc.add(name+"_s", d)
	return d
}

// call times one engine call under the op span, adds its seconds to
// "mpt.<kind>_s" and its conv-layer split, and its allocations to the
// mpt allocation metrics.
func (c tctx) call(kind string, layer, parent int, f func() error) (id int, sec float64, err error) {
	m0 := readMem()
	id = c.tr.begin(fmt.Sprintf("mpt.%s.l%d", kind, layer), "mpt", tidCalls, parent)
	err = f()
	sec = c.tr.end(id)
	d := readMem().sub(m0)
	c.acc.addLayer("mpt."+kind+"_s", layer, sec)
	c.acc.add("mpt.alloc_bytes_per_op", float64(d.bytes))
	c.acc.add("mpt.allocs_per_op", float64(d.mallocs))
	return id, sec, err
}

// addTraffic adds an engine traffic delta to the per-op byte counts.
func (c tctx) addTraffic(d mpt.Traffic) {
	c.acc.add("mpt.scatter_bytes", float64(d.ScatterBytes))
	c.acc.add("mpt.gather_bytes", float64(d.GatherBytes))
	c.acc.add("mpt.predict_bytes", float64(d.PredictBytes))
	c.acc.add("mpt.collective_bytes", float64(d.CollectiveBytes))
}

// replay re-runs one engine's winograd and quant stages from outside the
// engine, through the public Tiling and Mul*Into functions, with the same
// batch shards and group element sets the engine uses.
type replay struct {
	e      *mpt.Engine
	tl     *winograd.Tiling
	groups [][]int
	sc     *winograd.Scratch
	// xd holds the per-shard input domains of the last forward replay,
	// which the weight-gradient replay multiplies against.
	xd []*winograd.Domain
}

func newReplay(e *mpt.Engine, sc *winograd.Scratch) (*replay, error) {
	tl, err := winograd.NewTiling(e.Tr, e.P)
	if err != nil {
		return nil, err
	}
	r := &replay{e: e, tl: tl, sc: sc}
	for g := 0; g < e.Cfg.Ng; g++ {
		r.groups = append(r.groups, winograd.GroupElements(e.Tr.T, e.Cfg.Ng, g))
	}
	return r, nil
}

// shards returns the engine's equal batch split over its Nc clusters.
func (r *replay) shards(batch int) [][2]int {
	nc := r.e.Cfg.Nc
	out := make([][2]int, nc)
	for c := range out {
		out[c] = [2]int{c * batch / nc, (c + 1) * batch / nc}
	}
	return out
}

func shardOf(x *tensor.Tensor, lo, hi int) *tensor.Tensor {
	stride := x.C * x.H * x.W
	return tensor.FromSlice(hi-lo, x.C, x.H, x.W, append([]float32(nil), x.Data[lo*stride:hi*stride]...))
}

// forward replays Fprop, or FpropReLU when relu is set, for input x. It
// returns the spatial output, the seconds spent in stages, and the tiles
// prediction skipped.
func (r *replay) forward(c tctx, parent int, x *tensor.Tensor, relu bool) (*tensor.Tensor, float64, int64) {
	p, w, tiles := r.e.P, r.e.Weights(), r.tl.Tiles()
	out := tensor.New(x.N, p.Out, p.OutH(), p.OutW())
	stride := p.Out * p.OutH() * p.OutW()
	predict := relu && r.e.Cfg.Predict
	var stages float64
	var skipped int64
	r.xd = r.xd[:0]
	for _, b := range r.shards(x.N) {
		xs := shardOf(x, b[0], b[1])
		var xd *winograd.Domain
		stages += c.stage("winograd.transform_input", parent, func() { xd = r.tl.TransformInput(xs) })
		c.acc.add(accTiles, float64(xs.N*p.In*tiles))
		r.xd = append(r.xd, xd)
		yd := winograd.NewDomain(r.tl, xd.B, w.Out)
		stages += c.stage("winograd.mul_forward", parent, func() {
			for _, els := range r.groups {
				winograd.MulForwardInto(yd, xd, w, els, r.sc)
			}
		})
		c.acc.add(accDotMACs, float64(winograd.FpropCost(r.e.Tr, p, xs.N).DotMACs))
		if predict {
			var pr *quant.Predictor
			stages += c.stage("quant.calibrate", parent, func() { pr = r.calibrate(yd) })
			stages += c.stage("quant.predict", parent, func() {
				n, s := r.predict(pr, yd)
				c.acc.add("quant.tiles_predicted", float64(n))
				c.acc.add("quant.tiles_skipped", float64(s))
				skipped += s
			})
		}
		var ys *tensor.Tensor
		stages += c.stage("winograd.inverse_output", parent, func() { ys = r.tl.InverseOutput(yd) })
		c.acc.add(accTiles, float64(xs.N*p.Out*tiles))
		if relu {
			for i, v := range ys.Data {
				if v < 0 {
					ys.Data[i] = 0
				}
			}
		}
		copy(out.Data[b[0]*stride:], ys.Data)
	}
	return out, stages, skipped
}

// calibrate mirrors the engine's per-call quantizer calibration on the
// forward output domain.
func (r *replay) calibrate(yd *winograd.Domain) *quant.Predictor {
	var sample []float32
	for _, el := range yd.El {
		sample = append(sample, el.Data...)
	}
	q := quant.MustQuantizer(r.e.Cfg.PredictRegions, r.e.Cfg.PredictBits, quant.EstimateSigma(sample))
	return quant.NewPredictor(r.e.Tr, q)
}

// predict runs the predictor on every output tile, choosing the 1-D or 2-D
// form the way the engine does, and returns the tiles seen and skipped.
func (r *replay) predict(pr *quant.Predictor, yd *winograd.Domain) (tiles, skipped int64) {
	t := r.e.Tr.T
	tile := tensor.NewMat(t, t)
	oneD := winograd.HoldsWholeLines(t, r.e.Cfg.Ng)
	for row := 0; row < yd.Rows(); row++ {
		for ch := 0; ch < yd.C; ch++ {
			for el := range yd.El {
				tile.Data[el] = yd.El[el].At(row, ch)
			}
			tiles++
			skip := true
			if oneD {
				for _, dead := range pr.Predict1D(tile).NonActivatedRows() {
					skip = skip && dead
				}
			} else {
				skip = pr.Predict2D(tile).NonActivated()
			}
			if skip {
				skipped++
			}
		}
	}
	return tiles, skipped
}

// backward replays Bprop for output gradient dy and returns dx and the
// seconds spent in stages.
func (r *replay) backward(c tctx, parent int, dy *tensor.Tensor) (*tensor.Tensor, float64) {
	p, w, tiles := r.e.P, r.e.Weights(), r.tl.Tiles()
	dx := tensor.New(dy.N, p.In, p.H, p.W)
	stride := p.In * p.H * p.W
	var stages float64
	for _, b := range r.shards(dy.N) {
		dys := shardOf(dy, b[0], b[1])
		var dyd *winograd.Domain
		stages += c.stage("winograd.transform_outgrad", parent, func() { dyd = r.tl.TransformOutputGrad(dys) })
		c.acc.add(accTiles, float64(dys.N*p.Out*tiles))
		dxd := winograd.NewDomain(r.tl, dyd.B, w.In)
		stages += c.stage("winograd.mul_backward", parent, func() {
			for _, els := range r.groups {
				winograd.MulBackwardInto(dxd, dyd, w, els, r.sc)
			}
		})
		c.acc.add(accDotMACs, float64(winograd.BpropCost(r.e.Tr, p, dys.N).DotMACs))
		var dxs *tensor.Tensor
		stages += c.stage("winograd.inverse_inputgrad", parent, func() { dxs = r.tl.InverseInputGrad(dxd) })
		c.acc.add(accTiles, float64(dys.N*p.In*tiles))
		copy(dx.Data[b[0]*stride:], dxs.Data)
	}
	return dx, stages
}

// updateGrad replays UpdateGrad's per-cluster stages (output-gradient
// transform and weight-gradient products; the all-reduce is the engine's
// own work) and returns the seconds spent in them.
func (r *replay) updateGrad(c tctx, parent int, dy *tensor.Tensor) float64 {
	p, tiles := r.e.P, r.tl.Tiles()
	var stages float64
	for ci, b := range r.shards(dy.N) {
		dys := shardOf(dy, b[0], b[1])
		var dyd *winograd.Domain
		stages += c.stage("winograd.transform_outgrad", parent, func() { dyd = r.tl.TransformOutputGrad(dys) })
		c.acc.add(accTiles, float64(dys.N*p.Out*tiles))
		dw := winograd.NewWeights(r.e.Tr, p.In, p.Out)
		stages += c.stage("winograd.mul_grad", parent, func() {
			for _, els := range r.groups {
				winograd.MulGradInto(dw, r.xd[ci], dyd, els, r.sc)
			}
		})
		c.acc.add(accDotMACs, float64(winograd.UpdateGradCost(r.e.Tr, p, dys.N).DotMACs))
	}
	return stages
}

// sameBits reports the first element where got and want differ in any bit.
func sameBits(what string, got, want *tensor.Tensor) error {
	if !got.SameShape(want) {
		return fmt.Errorf("%s: shape %s, want %s", what, got.ShapeString(), want.ShapeString())
	}
	for i, v := range got.Data {
		if math.Float32bits(v) != math.Float32bits(want.Data[i]) {
			return fmt.Errorf("%s: element %d is %v, want %v", what, i, v, want.Data[i])
		}
	}
	return nil
}

// trafficDelta is after − before, field by field.
func trafficDelta(after, before mpt.Traffic) mpt.Traffic {
	return mpt.Traffic{
		ScatterBytes:    after.ScatterBytes - before.ScatterBytes,
		ScatterRawBytes: after.ScatterRawBytes - before.ScatterRawBytes,
		GatherBytes:     after.GatherBytes - before.GatherBytes,
		PredictBytes:    after.PredictBytes - before.PredictBytes,
		CollectiveBytes: after.CollectiveBytes - before.CollectiveBytes,
		SkippedTiles:    after.SkippedTiles - before.SkippedTiles,
		TotalTiles:      after.TotalTiles - before.TotalTiles,
	}
}

// commBytes is the bytes a traffic tally moved between workers.
func commBytes(t mpt.Traffic) int64 {
	return t.ScatterBytes + t.GatherBytes + t.PredictBytes + t.CollectiveBytes
}
