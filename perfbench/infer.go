package main

import (
	"fmt"

	"mptwino/internal/mpt"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// inferBench runs a forward-only pass through AlexNet conv3–conv5 on a
// 4×4 grid, chaining Engine.FpropReLU with activation prediction on.
type inferBench struct {
	seed   uint64
	net    *mpt.Net
	x, out *tensor.Tensor
	want   *tensor.Tensor // output of twin engines without prediction

	before, perOp mpt.Traffic
	replays       []*replay
}

const inferBatch = 8

// inferNet holds the three engines. Net.Forward is not used: it calls
// Fprop, so it never predicts.
func inferNet(seed uint64, predict bool) (*mpt.Net, error) {
	params, err := alexnetConv35()
	if err != nil {
		return nil, err
	}
	cfg := mpt.Config{Ng: 4, Nc: 4, Predict: predict, PredictRegions: 4, PredictBits: 6}
	return mpt.NewNet(winograd.F2x2_3x3, params, cfg, tensor.NewRNG(seed))
}

func forwardReLU(engines []*mpt.Engine, x *tensor.Tensor) (*tensor.Tensor, error) {
	for _, e := range engines {
		y, err := e.FpropReLU(x)
		if err != nil {
			return nil, err
		}
		x = y
	}
	return x, nil
}

func (b *inferBench) setup(seed uint64) error {
	net, err := inferNet(seed, true)
	if err != nil {
		return err
	}
	p := net.Engines[0].P
	x := tensor.New(inferBatch, p.In, p.H, p.W)
	tensor.NewRNG(seed^dataSeedMix).FillNormal(x, 0, 1)
	*b = inferBench{seed: seed, net: net, x: x}
	return nil
}

// warm computes the reference output on twin engines with the same
// weights and prediction off, then runs the first op.
func (b *inferBench) warm() error {
	twin, err := inferNet(b.seed, false)
	if err != nil {
		return err
	}
	if b.want, err = forwardReLU(twin.Engines, b.x); err != nil {
		return err
	}
	if err := b.run(); err != nil {
		return err
	}
	b.perOp = trafficDelta(b.net.TotalTraffic(), b.before)
	return b.check()
}

func (b *inferBench) run() error {
	b.before = b.net.TotalTraffic()
	var err error
	b.out, err = forwardReLU(b.net.Engines, b.x)
	return err
}

// check requires the predicted pass to equal the unpredicted one bit for
// bit, and every op to move the same traffic.
func (b *inferBench) check() error {
	if err := sameBits("predicted forward vs twin without prediction", b.out, b.want); err != nil {
		return err
	}
	if d := trafficDelta(b.net.TotalTraffic(), b.before); d != b.perOp {
		return fmt.Errorf("op traffic %+v differs from the first op's %+v", d, b.perOp)
	}
	return nil
}

func (b *inferBench) imagesPerOp() int        { return inferBatch }
func (b *inferBench) commBytesPerOp() float64 { return float64(commBytes(b.perOp)) }

// traced chains FpropReLU with every call timed and replays its stages,
// prediction included; the replayed output and skip count must equal the
// engine's.
func (b *inferBench) traced(tr *tracer, acc *layerAcc) (float64, error) {
	if b.replays == nil {
		sc := winograd.NewScratch()
		for _, e := range b.net.Engines {
			r, err := newReplay(e, sc)
			if err != nil {
				return 0, err
			}
			b.replays = append(b.replays, r)
		}
	}
	c := tctx{tr, acc}
	b.before = b.net.TotalTraffic()
	op := tr.begin("op.infer", "op", tidCalls, -1)
	var replayS, self float64
	x := b.x
	for i, e := range b.net.Engines {
		var y *tensor.Tensor
		t0 := e.Traffic
		id, sec, err := c.call("fprop_relu", i, op, func() (err error) { y, err = e.FpropReLU(x); return err })
		if err != nil {
			return 0, err
		}
		skippedByEngine := e.Traffic.SkippedTiles - t0.SkippedTiles
		start := now()
		yr, stages, skipped := b.replays[i].forward(c, id, x, true)
		err = sameBits(fmt.Sprintf("layer %d fprop_relu replay", i), yr, y)
		if err == nil && skipped != skippedByEngine {
			err = fmt.Errorf("layer %d: replay skipped %d tiles, engine %d", i, skipped, skippedByEngine)
		}
		replayS += now().Sub(start).Seconds()
		if err != nil {
			return 0, err
		}
		self += sec - stages
		x = y
	}
	opSec := tr.end(op) - replayS
	acc.add("mpt.self_s", self)
	c.addTraffic(trafficDelta(b.net.TotalTraffic(), b.before))
	b.out = x
	return opSec, b.check()
}
