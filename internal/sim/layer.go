package sim

import (
	"mptwino/internal/comm"
	"mptwino/internal/conv"
	"mptwino/internal/energy"
	"mptwino/internal/model"
	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/winograd"
)

// Breakdown exposes one pass's per-resource durations before the overlap
// rule combines them — which resource binds a pass explains every Fig. 15
// trend (early layers: tile fabric; w_dp late layers: DRAM weight
// streaming; backward passes: the serialized collective).
type Breakdown struct {
	SystolicSec float64 // dot-product matmuls
	VectorSec   float64 // Winograd transforms, activations
	DRAMSec     float64 // local 3D-stacked memory streaming
	TileCommSec float64 // tile scatter/gather on the cluster fabric
	CollSec     float64 // weight-gradient ring collective (serialized)
}

// Binding names the resource that determines the pass duration.
func (b Breakdown) Binding() string {
	name, best := "systolic", b.SystolicSec
	for _, c := range []struct {
		n string
		v float64
	}{{"vector", b.VectorSec}, {"dram", b.DRAMSec}, {"tile-comm", b.TileCommSec}} {
		if c.v > best {
			name, best = c.n, c.v
		}
	}
	if b.CollSec > best {
		return "collective"
	}
	return name
}

// LayerResult is the simulated outcome of one training iteration of one
// layer (the unit of Fig. 15).
type LayerResult struct {
	Name   string
	Config SystemConfig
	Ng, Nc int // chosen clustering (1,p for data-parallel configs)
	Nf, Ni int // planner shard axes (always 1 on the fixed menu)

	ForwardSec  float64          // fprop
	BackwardSec float64          // bprop + updateGrad
	Forward     Breakdown        // per-resource forward durations
	Backward    Breakdown        // per-resource backward durations
	Energy      energy.Breakdown // whole system
	DRAMBytes   int64            // per worker, whole iteration
	NetBytes    int64            // per worker, whole iteration (all fabrics)

	// TileBytes / CollBytes split the per-worker traffic by fabric: tile
	// scatter/gather on the cluster FBFLY vs. the weight-gradient ring
	// collective — the split behind the paper's Fig. 15 discussion.
	TileBytes int64
	CollBytes int64

	// Menu records every (Ng, Nc) candidate a dynamic-clustering config
	// evaluated for this layer (empty for fixed-grid configs). The chosen
	// entry is the earliest with the strictly smallest total time.
	Menu []MenuCell

	// BoundBytes is the layer's dense per-worker communication floor —
	// the minimum no-reduction traffic over the clustering menu
	// (comm.LowerBoundBytes) — against which the scenario matrix reports
	// achieved bytes. Identical across configs of one layer.
	BoundBytes int64

	// ShareImbalance is the residual spread of the realizable integer
	// batch sharding in permille (comm.ImbalancePermille); 0 on healthy
	// equal splits and on homogeneous systems without fleet profiles.
	ShareImbalance int64
}

// MenuCell is one evaluated dynamic-clustering candidate.
type MenuCell struct {
	Ng, Nc   int
	TotalSec float64
}

// TotalSec returns forward+backward time.
func (r LayerResult) TotalSec() float64 { return r.ForwardSec + r.BackwardSec }

// phase aggregates one phase's per-worker costs before overlap.
type phase struct {
	systolicSec float64
	vectorSec   float64
	dramSec     float64
	dramBytes   int64

	tileCommSec   float64
	tileCommBytes int64
	collSec       float64
	collBytes     int64

	macs     int64 // whole-system MACs (for energy)
	vops     int64 // whole-system vector ops
	netBytes int64 // whole-system byte·hops (for link energy)
}

// seconds returns the phase duration. Compute, DRAM streaming, and tile
// transfer overlap under double buffering (bound by the slowest resource),
// but the weight collective serializes after updateGrad: its final chunks
// only exist once the gradient computation finishes, and the updated
// weights must be broadcast and stored before the iteration ends.
func (p phase) seconds() float64 {
	t := ndp.PhaseSeconds(p.systolicSec, p.vectorSec, p.dramSec)
	if p.tileCommSec > t {
		t = p.tileCommSec
	}
	return t + p.collSec
}

// breakdown exports the phase's per-resource durations.
func (p phase) breakdown() Breakdown {
	return Breakdown{
		SystolicSec: p.systolicSec,
		VectorSec:   p.vectorSec,
		DRAMSec:     p.dramSec,
		TileCommSec: p.tileCommSec,
		CollSec:     p.collSec,
	}
}

// strategyFor resolves the clustering, transform and reduction fractions a
// config uses for one layer.
func (s System) strategyFor(c SystemConfig, p conv.Params, batch int) (comm.Strategy, *winograd.Transform) {
	switch {
	case c == DDp:
		return comm.Strategy{Ng: 1, Nc: s.Workers}, nil // direct convolution reads no transform
	case c == WDp:
		tr, err := winograd.ForKernel(p.K, 1)
		if err != nil {
			panic(err)
		}
		return comm.Strategy{Ng: 1, Nc: s.Workers, Winograd: true}, tr
	default:
		// Fixed (16,16) — or the largest Ng that p supports. Under a
		// survivor menu (fault recovery at a non-divisible worker count)
		// take the menu's leading entry, which keeps Ng=16 and idles the
		// remainder of the grid.
		var cfg comm.ClusterConfig
		if s.Menu != nil {
			cfg = s.Menu[0]
		} else {
			ng := 16
			for s.Workers%ng != 0 {
				ng /= 2
			}
			cfg = comm.ClusterConfig{Ng: ng, Nc: s.Workers / ng}
		}
		st, tr := comm.StrategyFor(cfg, p.K, c.usesPrediction(), s.Reductions)
		return st, tr
	}
}

// meanTileHops returns the average hop count of the cluster fabric the
// strategy implies: 1 for ≤4 fully-connected groups, 1.6 for the 4×4
// FBFLY (6 of 15 destinations at 1 hop, 9 at 2).
func meanTileHops(ng int) float64 {
	switch {
	case ng <= 1:
		return 0
	case ng <= 4:
		return 1
	case ng <= 16:
		return 1.6
	default:
		// Larger planner cells sit on a side×side FBFLY; the closed form
		// 2·side/(side+1) generalizes the 4×4 figure (2·4/5 = 1.6).
		side := 1
		for side*side < ng {
			side++
		}
		return 2 * float64(side) / float64(side+1)
	}
}

// SimulateLayer runs one training iteration of layer l at the given batch
// under config c, returning time, energy, and traffic. Dynamic-clustering
// configs evaluate every allowed (Ng, Nc) wiring and keep the fastest —
// the paper pre-computes exactly this per-layer choice offline ("the
// optimal configuration per layer ... is pre-determined and does not
// change", with footnote 9 assuming optimal reorganization).
func (s System) SimulateLayer(l model.Layer, batch int, c SystemConfig) LayerResult {
	if c.usesDynamicClustering() {
		// Menu entries are independent; evaluate them concurrently and
		// select sequentially, preserving the sequential tie-break (the
		// earliest entry with the strictly smallest time wins).
		menu := s.clusterMenu()
		results := parallel.Map(s.workers(), len(menu), func(i int) LayerResult {
			st, tr := comm.StrategyFor(menu[i], l.P.K, c.usesPrediction(), s.Reductions)
			return s.simulateWithStrategy(l, batch, c, st, tr)
		})
		s.Metrics.Counter("sim.menu_cells").Add(int64(len(menu)))
		best := results[0]
		for _, r := range results[1:] {
			if r.TotalSec() < best.TotalSec() {
				best = r
			}
		}
		// Record the evaluated sweep on the winner so observability layers
		// can show WHY this (Ng, Nc) won (trace args, -metrics dumps).
		best.Menu = make([]MenuCell, len(results))
		for i, r := range results {
			best.Menu[i] = MenuCell{Ng: r.Ng, Nc: r.Nc, TotalSec: r.TotalSec()}
		}
		best.BoundBytes = comm.LowerBoundBytes(l.P, batch, menu)
		return best
	}
	st, tr := s.strategyFor(c, l.P, batch)
	res := s.simulateWithStrategy(l, batch, c, st, tr)
	res.BoundBytes = comm.LowerBoundBytes(l.P, batch, s.clusterMenu())
	return res
}

// simulateWithStrategy runs the layer under an explicit strategy.
func (s System) simulateWithStrategy(l model.Layer, batch int, c SystemConfig, st comm.Strategy, tr *winograd.Transform) LayerResult {
	p := l.P
	res := LayerResult{Name: l.Name, Config: c, Ng: st.Ng, Nc: st.Nc,
		Nf: st.FilterShards(), Ni: st.ChannelShards()}

	var fwd, bwd phase
	if c == DDp {
		fwd, bwd = s.directPhases(p, batch, st)
	} else {
		fwd, bwd = s.winogradPhases(p, batch, st, tr, l.EffectiveGatherScale())
	}

	if s.fleetActive() {
		ff := s.fleetFactors(st, batch)
		ff.apply(&fwd)
		ff.apply(&bwd)
		res.ShareImbalance = comm.ImbalancePermille(ff.shares)
	}

	res.ForwardSec = fwd.seconds()
	res.BackwardSec = bwd.seconds()
	res.Forward = fwd.breakdown()
	res.Backward = bwd.breakdown()
	res.DRAMBytes = fwd.dramBytes + bwd.dramBytes
	res.TileBytes = fwd.tileCommBytes + bwd.tileCommBytes
	res.CollBytes = fwd.collBytes + bwd.collBytes
	res.NetBytes = res.TileBytes + res.CollBytes

	res.Energy = s.energyOf(fwd, res.ForwardSec, c, st)
	res.Energy.Add(s.energyOf(bwd, res.BackwardSec, c, st))
	return res
}

// directPhases models the d_dp baseline: one big matmul per phase
// (im2col-lowered), full spatial data movement, spatial weight collective.
func (s System) directPhases(p conv.Params, batch int, st comm.Strategy) (fwd, bwd phase) {
	pw := int64(s.Workers)
	oh, ow := int64(p.OutH()), int64(p.OutW())
	rowsPerWorker := (int64(batch)*oh*ow + pw - 1) / pw // output pixels per worker
	k2 := int64(p.K) * int64(p.K)
	inner := int64(p.In) * k2

	fc := conv.FpropCost(p, batch)
	fwd.systolicSec = s.NDP.MatmulSeconds(rowsPerWorker, inner, int64(p.Out))
	fwd.dramBytes = fc.Total() / pw
	fwd.dramSec = s.NDP.DRAMSeconds(fwd.dramBytes)
	fwd.macs = fc.MACs

	bc := conv.BpropCost(p, batch)
	uc := conv.UpdateGradCost(p, batch)
	// bprop matmul mirrors fprop; updateGrad reduces over output pixels.
	bwd.systolicSec = s.NDP.MatmulSeconds(rowsPerWorker, int64(p.Out)*k2, int64(p.In)) +
		s.NDP.MatmulSeconds(inner, rowsPerWorker, int64(p.Out))
	bwd.dramBytes = (bc.Total() + uc.Total()) / pw
	bwd.dramSec = s.NDP.DRAMSeconds(bwd.dramBytes)
	bwd.macs = bc.MACs + uc.MACs

	s.addCollective(&bwd, nil, p, st, pw)
	return fwd, bwd
}

// winogradPhases models every Winograd strategy on the four-axis space
// (comm/multiaxis.go): each worker runs its group's T²/Ng element GEMMs on
// In/Ni × Out/Nf channel shards, the cell fabric of D = Ng·Nf·Ni workers
// carries the tile scatter/gather and the partial-sum reductions, and the
// weight collective follows comm.WeightCollective. The paper's w_dp and
// MPT wirings are the Nf = Ni = 1 strategies.
func (s System) winogradPhases(p conv.Params, batch int, st comm.Strategy, tr *winograd.Transform, gatherScale float64) (fwd, bwd phase) {
	// Active workers in the grid. For healthy divisible configurations this
	// equals s.Workers; survivor menus may idle a remainder (e.g. (16,15)
	// uses 240 of 255 survivors), and idle workers contribute no compute or
	// traffic.
	pw := int64(st.Workers())
	ni := int64(st.ChannelShards())
	nf := int64(st.FilterShards())
	t2 := int64(tr.T) * int64(tr.T)
	// Element load per worker. When Ng divides T² each group owns whole
	// elements; otherwise the surplus elements' output channels are
	// co-partitioned across the groups sharing them (the tile gather
	// already collects Y fragments from every group, and each group
	// ring-reduces only its own dW columns), so the load balances to
	// T²/Ng fractionally.
	elemsPerWorker := float64(t2) / float64(st.Ng)
	inShard := (int64(p.In) + ni - 1) / ni
	outShard := (int64(p.Out) + nf - 1) / nf
	tiles := comm.TileBytes(tr, p, batch, 1) / 4 / t2 // tiles per channel-batch
	rowsPerWorker := tiles / int64(st.Nc)
	if rowsPerWorker < 1 {
		rowsPerWorker = 1
	}

	fc := winograd.FpropCost(tr, p, batch)
	bc := winograd.BpropCost(tr, p, batch)
	uc := winograd.UpdateGradCost(tr, p, batch)

	// --- forward ---
	// Dot products: elemsPerWorker independent (rows × In/Ni)·(In/Ni × Out/Nf)
	// matmuls.
	fwd.systolicSec = elemsPerWorker * s.NDP.MatmulSeconds(rowsPerWorker, inShard, outShard)
	fwd.vectorSec = float64(s.NDP.VectorCycles(fc.TransformMACs/pw)) / s.NDP.ClockHz
	fwd.dramBytes = s.winogradDRAMBytes(fc, st, rowsPerWorker)
	fwd.dramSec = s.NDP.DRAMSeconds(fwd.dramBytes)
	fwd.macs = fc.DotMACs
	fwd.vops = fc.TransformMACs
	s.addTiles(&fwd, tr, p, batch, st, false, gatherScale)

	// --- backward: bprop + updateGrad ---
	bwd.systolicSec = elemsPerWorker * (s.NDP.MatmulSeconds(rowsPerWorker, outShard, inShard) +
		s.NDP.MatmulSeconds(inShard, rowsPerWorker, outShard))
	bwd.vectorSec = float64(s.NDP.VectorCycles(bc.TransformMACs/pw)) / s.NDP.ClockHz
	bwd.dramBytes = s.winogradDRAMBytes(bc, st, rowsPerWorker) +
		s.winogradDRAMBytes(uc, st, rowsPerWorker)
	bwd.dramSec = s.NDP.DRAMSeconds(bwd.dramBytes)
	bwd.macs = bc.DotMACs + uc.DotMACs
	bwd.vops = bc.TransformMACs
	s.addTiles(&bwd, tr, p, batch, st, true, gatherScale)

	s.addCollective(&bwd, tr, p, st, pw)
	return fwd, bwd
}

// addTiles charges one phase's tile traffic (comm.ExtPhaseVolumes) to the
// cell fabric. The Section V reductions, gather scaling and the 1-D gather
// shrink apply to scatter and gather; partial sums move not-yet-final
// values and take none of them.
func (s System) addTiles(ph *phase, tr *winograd.Transform, p conv.Params, batch int, st comm.Strategy, backward bool, gatherScale float64) {
	sc, ga, ps := comm.ExtPhaseVolumes(tr, p, batch, st, backward)
	scatter := float64(sc) * (1 - st.ScatterReduction)
	gather := float64(ga) * (1 - st.GatherReduction) * gatherScale
	if st.Ng > 1 && winograd.HoldsWholeLines(tr.T, st.Ng) {
		gather *= float64(tr.M) / float64(tr.T)
	}
	bytes := scatter + gather + float64(ps)
	ph.tileCommBytes = int64(bytes)
	ph.tileCommSec = s.tileSeconds(ph.tileCommBytes, st.Cell())
	ph.netBytes = int64(bytes * meanTileHops(st.Cell()) * float64(st.Workers()))
}

// addCollective charges the layer's weight-gradient ring collective
// (comm.WeightCollective: reduce + broadcast, serialized after updateGrad)
// to the backward phase of a pw-worker grid.
func (s System) addCollective(bwd *phase, tr *winograd.Transform, p conv.Params, st comm.Strategy, pw int64) {
	msg, ring, spatial := comm.WeightCollective(tr, p, st)
	oneWay := comm.RingCollectivePerWorker(msg, ring)
	bwd.collBytes = 2 * oneWay
	bwd.collSec = s.collectiveSeconds(msg, ring, s.ringBW(spatial))
	bwd.netBytes += 2 * oneWay * pw
}

// winogradDRAMBytes distributes one phase's data volume to a worker:
// tiles and spatial data split across all workers; the weight shard is
// the cell-local 1/D share and is re-read once per systolic pass when it
// exceeds the double-buffered SRAM.
func (s System) winogradDRAMBytes(cst winograd.Cost, st comm.Strategy, rows int64) int64 {
	pw := int64(st.Workers())
	b := (cst.TileBytes + cst.SpatialBytes) / pw
	shard := cst.WeightBytes / int64(st.Cell())
	if shard > 0 {
		passes := int64(1)
		if !s.NDP.WeightsFitInBuffer(shard) {
			passes = (rows + int64(s.NDP.SystolicDim) - 1) / int64(s.NDP.SystolicDim)
			if passes < 1 {
				passes = 1
			}
		}
		b += shard * passes
	}
	return b
}

// tileSeconds converts per-worker tile-fabric bytes to time for a
// cell-worker cell on the cluster fabric, derated by the mean hop count
// (intermediate hops consume link capacity) plus the diameter's SerDes
// latency. A cell with Ng = 1 but Nf·Ni > 1 still moves tiles.
func (s System) tileSeconds(bytes int64, cell int) float64 {
	if bytes == 0 || cell <= 1 {
		return 0
	}
	bw := s.LinkBW / 2 // MPT tile share
	hops := meanTileHops(cell)
	cong := s.TileCongestion
	if cong <= 0 {
		cong = 1
	}
	return float64(bytes)*hops*cong/bw + 2*hops*s.SerDesSec
}

// collectiveSeconds models the pipelined ring reduce+broadcast of a
// msg-byte payload over an n-worker ring: bandwidth term 2·msg·(n−1)/n at
// the per-worker ring bandwidth, plus the pipeline fill of 2(n−1) hops of
// one chunk.
func (s System) collectiveSeconds(msg int64, n int, bw float64) float64 {
	if n <= 1 || msg <= 0 {
		return 0
	}
	bwTerm := 2 * float64(msg) * float64(n-1) / float64(n) / bw
	fill := 2 * float64(n-1) * (s.SerDesSec + float64(s.ChunkBytes)/bw)
	return bwTerm + fill
}

// energyOf charges one phase's energy for the whole p-worker system.
func (s System) energyOf(ph phase, wallSec float64, c SystemConfig, st comm.Strategy) energy.Breakdown {
	e := s.Energy
	var b energy.Breakdown
	b.Add(e.MACs(ph.macs))
	b.Add(e.MACs(ph.vops)) // transforms are multiply-adds on the vector unit
	dram := ph.dramBytes * int64(s.Workers)
	b.Add(e.DRAM(dram))
	b.Add(e.SRAM(2 * dram)) // every DRAM byte passes through a buffer twice
	b.Add(e.LinkTraffic(ph.netBytes))
	b.Add(e.LinkIdle(s.activeLinks(c, st, ph), wallSec*float64(s.Workers)))
	return b
}

// activeLinks returns the per-worker powered link count for a phase,
// honoring the paper's "unused links are turned-off ... while maintaining
// minimal connectivity to the host".
func (s System) activeLinks(c SystemConfig, st comm.Strategy, ph phase) int {
	switch {
	case ph.collBytes > 0 && ph.tileCommBytes > 0:
		return 4
	case ph.collBytes > 0:
		if c.isMPT() {
			return 2
		}
		return 4
	case ph.tileCommBytes > 0:
		return 2
	default:
		return 1 // minimal host connectivity
	}
}
