package sim

import (
	"mptwino/internal/comm"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// This file is the planner's entry into the simulator: the cost oracle
// and the communication floor over the four-axis strategy space (Ng
// element groups × Nc batch clusters × Nf filter shards × Ni input-channel
// shards). Both run the one phase model in layer.go; the fixed menu's
// strategies are its Nf = Ni = 1 slice, and the integer floor order of
// comm.ExtPhaseVolumes keeps them on the scenario goldens byte-exactly.

// SimulateLayerStrategy runs one training iteration of layer l under an
// explicit parallelization strategy — the planner's cost oracle. The
// transform follows the strategy's tile axis (st.TileM, with 0 = the
// paper's kernel rule for st.Ng); non-Winograd strategies run the
// direct-convolution (d_dp) phase model. The result's BoundBytes carries
// the layer's dense communication floor so callers can report
// achieved-vs-bound traffic.
func (s System) SimulateLayerStrategy(l model.Layer, batch int, c SystemConfig, st comm.Strategy) LayerResult {
	if !st.Winograd {
		c = DDp
	}
	res := s.simulateWithStrategy(l, batch, c, st, transformFor(st, l.P.K))
	res.BoundBytes = comm.LowerBoundBytes(l.P, batch, s.clusterMenu())
	return res
}

// CommFloorSec returns a cheap lower bound on the layer's simulated
// iteration time under st, built from communication volumes and the link
// model alone — no compute or DRAM terms. Each phase's duration is
// max(compute, tileComm) + collective, so the tile and collective terms
// never exceed the simulated total and pruning candidates whose floor
// already exceeds a reference time is sound (to within a byte of int64
// rounding, far below any useful pruning slack). This is the Chen/Demmel-
// style bound the planner prunes with before invoking the full oracle.
func (s System) CommFloorSec(l model.Layer, batch int, st comm.Strategy) float64 {
	tr := transformFor(st, l.P.K)
	v := comm.LayerVolumes(tr, l.P, batch, st)
	tileBytes := int64(float64(v.TileGather)*l.EffectiveGatherScale()) + v.TileScatter + v.PartialSum
	msg, ring, spatial := comm.WeightCollective(tr, l.P, st)
	return s.tileSeconds(tileBytes, st.Cell()) + s.collectiveSeconds(msg, ring, s.ringBW(spatial))
}

// transformFor resolves the Winograd transform st runs layers of kernel
// size k with; nil for direct-convolution strategies, which read none.
func transformFor(st comm.Strategy, k int) *winograd.Transform {
	if !st.Winograd {
		return nil
	}
	tr, err := st.Transform(k)
	if err != nil {
		panic(err)
	}
	return tr
}
