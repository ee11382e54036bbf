// Package comm implements the closed-form communication model of Section
// III-C: per-worker traffic volumes for weight-gradient collectives and
// tile transfer under data-parallel and multi-dimensional parallel
// training, plus the dynamic-clustering optimizer of Section IV that picks
// the (Ng, Nc) configuration minimizing estimated communication time per
// layer.
package comm

import (
	"fmt"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// Strategy names a parallelization strategy for one layer.
type Strategy struct {
	Ng int // groups (intra-tile parallelism width)
	Nc int // clusters (data parallelism width)

	// Nf and Ni are the extra parallel axes of the auto-search planner
	// (Jia et al., "Exploring Hidden Dimensions in Parallelizing CNNs"):
	// Nf shards the filter (output-channel) dimension and Ni the input-
	// channel dimension inside each (group, cluster) cell, so the total
	// worker count is Ng·Nc·Nf·Ni. Zero means 1 (axis unused). The paper's
	// fixed menu is the Nf = Ni = 1 slice of the same one model; its
	// integer floor order is what keeps that slice equal to the Section
	// III-C formulas, survivor grids included.
	Nf int // filter (output-channel) shards per cell
	Ni int // input-channel shards per cell

	// Winograd reports whether the layer runs in the Winograd domain at
	// all (false = direct convolution, the d_dp baseline).
	Winograd bool

	// TileM selects the Winograd tile output size m of F(m×m,r×r) as an
	// explicit strategy axis. Zero keeps the paper's rule (the group count
	// picks the tile: F(2×2) for Ng>1, F(4×4) for Ng=1 at 3×3 kernels), so
	// every fixed-menu strategy and all pre-existing callers are unchanged
	// bit-for-bit. The planner enumerates non-zero values {2, 4} by default
	// and {2, 4, 6} behind AllowWideTiles (F(6×6,3×3) is training-unsafe;
	// see winograd/stability_test.go).
	TileM int

	// Reduction factors from Section V, expressed as the *fraction of
	// traffic removed* (0 = no reduction). GatherReduction applies to tile
	// gathering (activation prediction), ScatterReduction to tile
	// scattering (zero-skipping).
	GatherReduction  float64
	ScatterReduction float64
}

// FilterShards returns the filter-axis width, defaulting to 1.
func (s Strategy) FilterShards() int {
	if s.Nf <= 0 {
		return 1
	}
	return s.Nf
}

// ChannelShards returns the input-channel-axis width, defaulting to 1.
func (s Strategy) ChannelShards() int {
	if s.Ni <= 0 {
		return 1
	}
	return s.Ni
}

// Cell returns the worker count of one cluster cell: the Ng·Nf·Ni workers
// that cooperate on one batch shard over the tile fabric.
func (s Strategy) Cell() int { return s.Ng * s.FilterShards() * s.ChannelShards() }

// Extended reports whether the strategy uses the channel/filter axes the
// fixed menu does not have.
func (s Strategy) Extended() bool { return s.FilterShards() > 1 || s.ChannelShards() > 1 }

// Workers returns the total worker count of the strategy.
func (s Strategy) Workers() int { return s.Cell() * s.Nc }

// Validate checks the strategy invariants.
func (s Strategy) Validate() error {
	if s.Ng < 1 || s.Nc < 1 {
		return fmt.Errorf("comm: Ng=%d Nc=%d must be >= 1", s.Ng, s.Nc)
	}
	if s.Nf < 0 || s.Ni < 0 {
		return fmt.Errorf("comm: Nf=%d Ni=%d must be >= 0 (0 means 1)", s.Nf, s.Ni)
	}
	if s.Extended() && !s.Winograd {
		return fmt.Errorf("comm: channel/filter sharding requires the Winograd path")
	}
	switch s.TileM {
	case 0, 2, 4, 6:
	default:
		return fmt.Errorf("comm: TileM=%d not supported (0 = paper rule, else m of F(m×m))", s.TileM)
	}
	if s.TileM != 0 && !s.Winograd {
		return fmt.Errorf("comm: an explicit tile size requires the Winograd path")
	}
	if s.GatherReduction < 0 || s.GatherReduction > 1 ||
		s.ScatterReduction < 0 || s.ScatterReduction > 1 {
		return fmt.Errorf("comm: reductions must be in [0,1]")
	}
	return nil
}

// Transform resolves the Winograd transform for kernel size k under this
// strategy: the explicit TileM axis when set, the paper's group-count rule
// otherwise. It enforces the Ng ≤ T² feasibility bound (a group must own at
// least one element of the T×T tile).
func (s Strategy) Transform(k int) (*winograd.Transform, error) {
	tr, err := winograd.ForKernelTile(k, s.Ng, s.TileM)
	if err != nil {
		return nil, err
	}
	if s.Ng > tr.T*tr.T {
		return nil, fmt.Errorf("comm: Ng=%d exceeds the %d elements of the %s tile", s.Ng, tr.T*tr.T, tr)
	}
	return tr, nil
}

// Volumes is the per-worker, per-iteration communication of one layer,
// in bytes, split by traffic type. Weight volume is one collective
// direction (the reduce); the time model doubles it for the broadcast.
type Volumes struct {
	Weight      int64 // weight-gradient ring collective, one direction
	TileGather  int64 // Winograd-domain output tiles gathered (fprop+bprop)
	TileScatter int64 // Winograd-domain input tiles scattered (fprop+bprop)

	// PartialSum is the intra-cell partial-sum reduction traffic the
	// channel/filter axes add: fprop output tiles reduced across the Ni
	// input-channel shards and bprop dX tiles reduced across the Nf filter
	// shards. Always 0 on the fixed menu (Nf = Ni = 1).
	PartialSum int64
}

// Total returns the summed per-worker bytes.
func (v Volumes) Total() int64 { return v.Weight + v.TileGather + v.TileScatter + v.PartialSum }

// scale multiplies all fields by k (used for layer Repeat counts).
func (v Volumes) scale(k int64) Volumes {
	return Volumes{
		Weight:      v.Weight * k,
		TileGather:  v.TileGather * k,
		TileScatter: v.TileScatter * k,
		PartialSum:  v.PartialSum * k,
	}
}

func (v Volumes) add(o Volumes) Volumes {
	return Volumes{
		Weight:      v.Weight + o.Weight,
		TileGather:  v.TileGather + o.TileGather,
		TileScatter: v.TileScatter + o.TileScatter,
		PartialSum:  v.PartialSum + o.PartialSum,
	}
}

// SpatialWeightBytes returns |w| for a layer.
func SpatialWeightBytes(p conv.Params) int64 {
	return 4 * int64(p.In) * int64(p.Out) * int64(p.K) * int64(p.K)
}

// WinogradWeightBytes returns |W| for a layer under transform tr.
func WinogradWeightBytes(tr *winograd.Transform, p conv.Params) int64 {
	return 4 * int64(p.In) * int64(p.Out) * int64(tr.T) * int64(tr.T)
}

// TileBytes returns |Tiles| for one tensor role (input or output channels
// c) of a layer: the whole batch's Winograd-domain feature-map volume.
func TileBytes(tr *winograd.Transform, p conv.Params, batch, c int) int64 {
	m := tr.M
	th := (p.OutH() + m - 1) / m
	tw := (p.OutW() + m - 1) / m
	return 4 * int64(batch) * int64(th) * int64(tw) * int64(c) * int64(tr.T) * int64(tr.T)
}

// RingCollectivePerWorker returns the per-worker one-direction traffic of a
// pipelined ring collective over n workers with a msg-byte payload:
// msg·(n−1)/n (paper Section III-C). A single worker communicates nothing.
func RingCollectivePerWorker(msg int64, n int) int64 {
	if n <= 1 {
		return 0
	}
	return msg * int64(n-1) / int64(n)
}

// TileTransferPerWorker returns the per-worker traffic of distributing
// tile data across ng groups when each worker holds tiles/(nc·ng) bytes:
// the (ng−1)/ng share leaves the worker (paper Section III-C).
func TileTransferPerWorker(tiles int64, ng, nc int) int64 {
	if ng <= 1 {
		return 0
	}
	held := tiles / int64(nc) / int64(ng)
	return held * int64(ng-1) / int64(ng)
}

// LayerVolumes computes the per-worker, per-iteration communication of one
// layer under the strategy, covering all three phases:
//
//   - fprop:  scatter input tiles X, reduce and gather output tiles Y
//   - bprop:  scatter output-gradient tiles dY, reduce and gather dX
//   - updateGrad: ring collective of the weight gradient (WeightCollective)
//
// Direct convolution and one-worker Winograd cells (d_dp, w_dp) move no
// tiles; single-cluster strategies (Nc=1) have no weight collective. The
// tile phases are ExtPhaseVolumes. When the group count lets each worker
// hold whole tile lines, the 1-D transform optimization shrinks gathered
// tiles by m/T (Section IV); the shrink floors on the int64 sum before the
// Section V reductions scale it.
func LayerVolumes(tr *winograd.Transform, p conv.Params, batch int, s Strategy) Volumes {
	if err := s.Validate(); err != nil {
		panic(err)
	}
	msg, ring, spatial := WeightCollective(tr, p, s)
	v := Volumes{Weight: RingCollectivePerWorker(msg, ring)}
	if spatial {
		return v
	}

	sF, gF, pF := ExtPhaseVolumes(tr, p, batch, s, false)
	sB, gB, pB := ExtPhaseVolumes(tr, p, batch, s, true)
	gather := gF + gB
	scatter := sF + sB
	if s.Ng > 1 && winograd.HoldsWholeLines(tr.T, s.Ng) {
		// Whole-line ownership enables the 1-D inverse transform at the
		// source: gathered data shrinks from T to m values per line.
		gather = gather * int64(tr.M) / int64(tr.T)
	}

	v.TileGather = int64(float64(gather) * (1 - s.GatherReduction))
	v.TileScatter = int64(float64(scatter) * (1 - s.ScatterReduction))
	v.PartialSum = pF + pB
	return v
}

// WeightCollective returns the payload and the ring of one layer's
// weight-gradient collective under s — the one place that decides which
// weights move. Direct convolution (d_dp) and one-worker Winograd cells
// (w_dp, Table IV "update w") keep spatial weights: the whole |w| is rung
// across all s.Workers() workers, and spatial reports true. Otherwise each
// worker of a D = Ng·Nf·Ni cell owns a |W|/D Winograd-domain shard, rung
// across the Nc clusters. tr is only read in the Winograd-domain case.
func WeightCollective(tr *winograd.Transform, p conv.Params, s Strategy) (msg int64, ring int, spatial bool) {
	if !s.Winograd || s.Cell() == 1 {
		return SpatialWeightBytes(p), s.Workers(), true
	}
	return WinogradWeightBytes(tr, p) / int64(s.Cell()), s.Nc, false
}

// NetworkVolumes sums per-worker volumes over a network's layers for a
// fixed strategy, honoring Repeat and GatherScale.
func NetworkVolumes(net model.Network, tr *winograd.Transform, s Strategy) Volumes {
	var total Volumes
	for _, l := range net.Layers {
		v := LayerVolumes(tr, l.P, net.Batch, s)
		v.TileGather = int64(float64(v.TileGather) * l.EffectiveGatherScale())
		total = total.add(v.scale(int64(l.EffectiveRepeat())))
	}
	return total
}
