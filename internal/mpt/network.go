package mpt

import (
	"fmt"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// Net is a multi-layer CNN whose every convolution runs distributed on the
// MPT engine, with ReLU between layers (and a linear final layer). It
// demonstrates — and its tests prove — that a whole network trains under
// MPT exactly as it would on one worker, layer chaining, activation
// masking and per-layer collectives included.
type Net struct {
	Cfg     Config
	Engines []*Engine
	masks   [][]bool // ReLU masks per hidden layer, from the last forward

	// telemetry handles + logical step clock (zero value = disabled; see
	// Instrument in telemetry.go)
	tel netTel
}

// NewNet builds engines for each geometry in params; layer i's output
// channels must match layer i+1's input channels, and all spatial sizes
// must chain (same-padded layers keep H×W). Every layer shares one
// transform and one worker organization.
func NewNet(tr *winograd.Transform, params []conv.Params, cfg Config, rng *tensor.RNG) (*Net, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("mpt: empty network")
	}
	cfgs := make([]Config, len(params))
	for i := range cfgs {
		cfgs[i] = cfg
	}
	return buildNet(func(int) (*winograd.Transform, error) { return tr, nil }, params, cfgs, rng)
}

// NewNetConfigs builds a network whose layers run under per-layer worker
// organizations — the form an autoplan (internal/planner) produces. Layer
// i's transform is resolved from its kernel size, group count and tile
// choice via winograd.ForKernelTile (TileM = 0 keeps the historical
// winograd.ForKernel rule), so one net may mix single-group F(4×4,3×3)
// layers with multi-group F(2×2,·) ones, or run an explicit planner-chosen
// tile size.
func NewNetConfigs(params []conv.Params, cfgs []Config, rng *tensor.RNG) (*Net, error) {
	if len(params) == 0 {
		return nil, fmt.Errorf("mpt: empty network")
	}
	if len(cfgs) != len(params) {
		return nil, fmt.Errorf("mpt: %d configs for %d layers", len(cfgs), len(params))
	}
	return buildNet(func(i int) (*winograd.Transform, error) {
		return winograd.ForKernelTile(params[i].K, cfgs[i].Ng, cfgs[i].TileM)
	}, params, cfgs, rng)
}

func buildNet(trFor func(int) (*winograd.Transform, error), params []conv.Params, cfgs []Config, rng *tensor.RNG) (*Net, error) {
	n := &Net{Cfg: cfgs[0]}
	for i, p := range params {
		if i > 0 {
			prev := params[i-1]
			if p.In != prev.Out || p.H != prev.OutH() || p.W != prev.OutW() {
				return nil, fmt.Errorf("mpt: layer %d input %dx%dx%d does not chain from layer %d output %dx%dx%d",
					i, p.In, p.H, p.W, i-1, prev.Out, prev.OutH(), prev.OutW())
			}
		}
		tr, err := trFor(i)
		if err != nil {
			return nil, err
		}
		e, err := NewEngine(tr, p, cfgs[i], rng)
		if err != nil {
			return nil, err
		}
		n.Engines = append(n.Engines, e)
	}
	return n, nil
}

// Forward runs the distributed forward pass: ReLU after every layer except
// the last.
func (n *Net) Forward(x *tensor.Tensor) (*tensor.Tensor, error) {
	n.masks = n.masks[:0]
	for i, e := range n.Engines {
		y, err := e.Fprop(x)
		if err != nil {
			return nil, err
		}
		if i < len(n.Engines)-1 {
			mask := make([]bool, len(y.Data))
			for j, v := range y.Data {
				if v > 0 {
					mask[j] = true
				} else {
					y.Data[j] = 0
				}
			}
			n.masks = append(n.masks, mask)
		}
		x = y
	}
	return x, nil
}

// Backward runs the distributed backward pass from the loss gradient at
// the network output, applying each layer's collective-reduced update with
// learning rate lr. Forward must run first.
func (n *Net) Backward(dy *tensor.Tensor, lr float32) error {
	if len(n.masks) != len(n.Engines)-1 {
		return fmt.Errorf("mpt: Backward before Forward")
	}
	// Hidden layers transform each dY once for both the weight gradient
	// and dx; the first layer needs no dx.
	for i := len(n.Engines) - 1; i > 0; i-- {
		e := n.Engines[i]
		dw, dx, err := e.Backward(dy)
		if err != nil {
			return err
		}
		for j, live := range n.masks[i-1] {
			if !live {
				dx.Data[j] = 0
			}
		}
		dy = dx
		e.Step(lr, dw)
	}
	dw, err := n.Engines[0].UpdateGrad(dy)
	if err != nil {
		return err
	}
	n.Engines[0].Step(lr, dw)
	n.masks = n.masks[:0]
	return nil
}

// TrainStepMSE runs one SGD step against L = 0.5‖y − target‖², returning
// the pre-update loss.
func (n *Net) TrainStepMSE(x, target *tensor.Tensor, lr float32) (float64, error) {
	y, err := n.Forward(x)
	if err != nil {
		return 0, err
	}
	if !y.SameShape(target) {
		return 0, fmt.Errorf("mpt: target shape %s does not match output %s",
			target.ShapeString(), y.ShapeString())
	}
	dy := y.Clone()
	dy.AXPY(-1, target)
	var loss float64
	for _, v := range dy.Data {
		loss += float64(0.5 * float64(v) * float64(v))
	}
	if err := n.Backward(dy, lr); err != nil {
		return 0, err
	}
	n.recordStep()
	return loss, nil
}

// TotalTraffic sums the engines' traffic counters.
func (n *Net) TotalTraffic() Traffic {
	var t Traffic
	for _, e := range n.Engines {
		t.ScatterBytes += e.Traffic.ScatterBytes
		t.ScatterRawBytes += e.Traffic.ScatterRawBytes
		t.GatherBytes += e.Traffic.GatherBytes
		t.PredictBytes += e.Traffic.PredictBytes
		t.CollectiveBytes += e.Traffic.CollectiveBytes
		t.SkippedTiles += e.Traffic.SkippedTiles
		t.TotalTiles += e.Traffic.TotalTiles
	}
	return t
}
