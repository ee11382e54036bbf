package main

import (
	"fmt"
	"math"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/mpt"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// dataSeedMix separates the input stream from the weight stream of one
// seed.
const dataSeedMix = 0x9e3779b97f4a7c15

// stepSpec is the geometry and worker grid of a training-step workload.
type stepSpec struct {
	tr     *winograd.Transform
	params []conv.Params
	cfg    mpt.Config
	batch  int
	lr     float32
}

// stepEarly is VGG-16's stage 3 (56×56, three 3×3 layers) at 1/8 width
// under F(4×4,3×3) on one worker: bound by the tile transforms.
func stepEarly() (stepSpec, error) {
	var params []conv.Params
	for _, l := range model.VGG16().Layers {
		if l.Name != "s2-c0" && l.Name != "s2-rest" {
			continue
		}
		p := l.P
		p.In, p.Out = p.In/8, p.Out/8
		for r := 0; r < l.EffectiveRepeat(); r++ {
			params = append(params, p)
		}
	}
	if len(params) != 3 {
		return stepSpec{}, fmt.Errorf("VGG-16 stage 3 has %d conv layers, want 3", len(params))
	}
	return stepSpec{tr: winograd.F4x4_3x3, params: params, cfg: mpt.Config{Ng: 1, Nc: 1}, batch: 8, lr: 1e-7}, nil
}

// stepLate is AlexNet conv3–conv5 (13×13, full width) under F(2×2,3×3) on
// a 4×4 grid: bound by the element products and the engine's own work.
func stepLate() (stepSpec, error) {
	params, err := alexnetConv35()
	if err != nil {
		return stepSpec{}, err
	}
	return stepSpec{tr: winograd.F2x2_3x3, params: params, cfg: mpt.Config{Ng: 4, Nc: 4}, batch: 8, lr: 1e-6}, nil
}

func alexnetConv35() ([]conv.Params, error) {
	layers := model.AlexNet().Layers
	if len(layers) != 4 {
		return nil, fmt.Errorf("AlexNet has %d conv layers, want 4", len(layers))
	}
	var params []conv.Params
	for _, l := range layers[1:] {
		params = append(params, l.P)
	}
	return params, nil
}

// stepBench runs one mpt.Net.TrainStepMSE per op on a fixed batch.
type stepBench struct {
	build func() (stepSpec, error)
	spec  stepSpec
	seed  uint64
	net   *mpt.Net
	x     *tensor.Tensor
	tgt   *tensor.Tensor

	loss   float64
	before mpt.Traffic // net traffic before the last op
	perOp  mpt.Traffic // one op's traffic, fixed by the warm-up op

	// traced run: a twin net in the same state that trains through
	// Net.TrainStepMSE, and the per-layer stage replays
	twin    *mpt.Net
	replays []*replay
}

func newStepBench(build func() (stepSpec, error)) *stepBench { return &stepBench{build: build} }

func (s *stepBench) setup(seed uint64) error {
	spec, err := s.build()
	if err != nil {
		return err
	}
	net, err := mpt.NewNet(spec.tr, spec.params, spec.cfg, tensor.NewRNG(seed))
	if err != nil {
		return err
	}
	first, last := spec.params[0], spec.params[len(spec.params)-1]
	data := tensor.NewRNG(seed ^ dataSeedMix)
	x := tensor.New(spec.batch, first.In, first.H, first.W)
	tgt := tensor.New(spec.batch, last.Out, last.OutH(), last.OutW())
	data.FillNormal(x, 0, 1)
	data.FillNormal(tgt, 0, 1)
	*s = stepBench{build: s.build, spec: spec, seed: seed, net: net, x: x, tgt: tgt}
	return nil
}

// warm runs the first step and checks its loss against a reference with
// the same transforms and groups but no cluster sharding (Nc=1), within
// the tolerance the planner's engine test uses.
func (s *stepBench) warm() error {
	refCfg := s.spec.cfg
	refCfg.Nc = 1
	ref, err := mpt.NewNet(s.spec.tr, s.spec.params, refCfg, tensor.NewRNG(s.seed))
	if err != nil {
		return err
	}
	want, err := ref.TrainStepMSE(s.x, s.tgt, s.spec.lr)
	if err != nil {
		return err
	}
	if err := s.run(); err != nil {
		return err
	}
	s.perOp = trafficDelta(s.net.TotalTraffic(), s.before)
	if math.Abs(s.loss-want) > 1e-3*(1+want) {
		return fmt.Errorf("first-step loss %v differs from the Nc=1 reference %v", s.loss, want)
	}
	return s.check()
}

func (s *stepBench) run() error {
	s.before = s.net.TotalTraffic()
	var err error
	s.loss, err = s.net.TrainStepMSE(s.x, s.tgt, s.spec.lr)
	return err
}

func (s *stepBench) check() error {
	if math.IsNaN(s.loss) || math.IsInf(s.loss, 0) {
		return fmt.Errorf("loss %v is not finite", s.loss)
	}
	if d := trafficDelta(s.net.TotalTraffic(), s.before); d != s.perOp {
		return fmt.Errorf("op traffic %+v differs from the first op's %+v", d, s.perOp)
	}
	return nil
}

func (s *stepBench) imagesPerOp() int        { return s.spec.batch }
func (s *stepBench) commBytesPerOp() float64 { return float64(commBytes(s.perOp)) }

// traced rebuilds the step from outside the net, in Net.Forward and
// Net.Backward's order — Fprop, ReLU mask, UpdateGrad, Bprop, Step — with
// every engine call timed, and replays each call's stages. The replayed
// outputs must equal the engine's bit for bit, and the loss must equal
// that of the twin net's Net.TrainStepMSE bit for bit.
func (s *stepBench) traced(tr *tracer, acc *layerAcc) (float64, error) {
	if s.twin == nil {
		if err := s.startTrace(); err != nil {
			return 0, err
		}
	}
	c := tctx{tr, acc}
	lr := s.spec.lr
	engines := s.net.Engines
	last := len(engines) - 1
	s.before = s.net.TotalTraffic()
	op := tr.begin("op.train_step", "op", tidCalls, -1)
	var replayS, self float64 // replay and compare seconds inside the op; engine self time

	x := s.x
	masks := make([][]bool, last)
	for i, e := range engines {
		var y *tensor.Tensor
		id, sec, err := c.call("fprop", i, op, func() (err error) { y, err = e.Fprop(x); return err })
		if err != nil {
			return 0, err
		}
		t0 := now()
		yr, stages, _ := s.replays[i].forward(c, id, x, false)
		err = sameBits(fmt.Sprintf("layer %d fprop replay", i), yr, y)
		replayS += now().Sub(t0).Seconds()
		if err != nil {
			return 0, err
		}
		self += sec - stages
		if i < last {
			masks[i] = make([]bool, len(y.Data))
			for j, v := range y.Data {
				if v > 0 {
					masks[i][j] = true
				} else {
					y.Data[j] = 0
				}
			}
		}
		x = y
	}
	dy := x.Clone()
	dy.AXPY(-1, s.tgt)
	var loss float64
	for _, v := range dy.Data {
		loss += 0.5 * float64(v) * float64(v)
	}
	for i := last; i >= 0; i-- {
		e := engines[i]
		var dw *winograd.Weights
		id, sec, err := c.call("updategrad", i, op, func() (err error) { dw, err = e.UpdateGrad(dy); return err })
		if err != nil {
			return 0, err
		}
		t0 := now()
		stages := s.replays[i].updateGrad(c, id, dy)
		replayS += now().Sub(t0).Seconds()
		self += sec - stages
		if i > 0 {
			var dx *tensor.Tensor
			id, sec, err := c.call("bprop", i, op, func() (err error) { dx, err = e.Bprop(dy); return err })
			if err != nil {
				return 0, err
			}
			t0 := now()
			dxr, stages := s.replays[i].backward(c, id, dy)
			err = sameBits(fmt.Sprintf("layer %d bprop replay", i), dxr, dx)
			replayS += now().Sub(t0).Seconds()
			if err != nil {
				return 0, err
			}
			self += sec - stages
			for j, live := range masks[i-1] {
				if !live {
					dx.Data[j] = 0
				}
			}
			dy = dx
		}
		_, sec, _ = c.call("step", i, op, func() error { e.Step(lr, dw); return nil })
		self += sec
	}
	opSec := tr.end(op) - replayS
	acc.add("mpt.self_s", self)
	c.addTraffic(trafficDelta(s.net.TotalTraffic(), s.before))

	s.loss = loss
	want, err := s.twin.TrainStepMSE(s.x, s.tgt, lr)
	if err != nil {
		return opSec, err
	}
	if math.Float64bits(loss) != math.Float64bits(want) {
		return opSec, fmt.Errorf("rebuilt step loss %v differs from Net.TrainStepMSE %v", loss, want)
	}
	return opSec, s.check()
}

// startTrace builds the twin net in the traced net's current state and
// the per-layer replays.
func (s *stepBench) startTrace() error {
	twin, err := mpt.NewNet(s.spec.tr, s.spec.params, s.spec.cfg, tensor.NewRNG(s.seed))
	if err != nil {
		return err
	}
	sc := winograd.NewScratch()
	for i, e := range s.net.Engines {
		twin.Engines[i].SetWeights(e.Weights())
		r, err := newReplay(e, sc)
		if err != nil {
			return err
		}
		s.replays = append(s.replays, r)
	}
	s.twin = twin
	return nil
}
