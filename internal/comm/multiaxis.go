package comm

import (
	"mptwino/internal/conv"
	"mptwino/internal/winograd"
)

// This file holds the tile phases of the one Winograd traffic model: the
// four-axis strategy space Ng Winograd-element groups × Nc batch clusters
// × Nf filter (output-channel) shards × Ni input-channel shards, with
// Ng·Nc·Nf·Ni = p. The extra axes follow Jia et al. ("Exploring Hidden
// Dimensions in Parallelizing CNNs"): sharding filters replicates input
// tiles, sharding input channels leaves partial output sums that an
// intra-cell reduction collective must combine. The paper's MPT and w_dp
// wirings are the Nf = Ni = 1 slice of this space.
//
// Traffic accounting (per worker, per iteration, bytes). One cluster owns
// the batch shard B/Nc; its cell of D = Ng·Nf·Ni workers initially holds
// the shard's tiles uniformly in position-major order (1/D each). Worker
// (g, f, i) of the cell computes, for group g's T²/Ng elements, the
// partial GEMM X[rows, In/Ni]·W[In/Ni, Out/Nf]:
//
//   - scatter (fprop X):   need = inT/Nc/(Ng·Ni); the resident fraction of
//     the need is 1/D, so (D−1)/D of it crosses the cell fabric.
//   - partial-sum reduce (fprop Y): the Ni channel shards hold partial
//     sums of the same outT/Nc/(Ng·Nf) values; a ring reduce moves
//     (Ni−1)/Ni of that payload per worker.
//   - gather (fprop Y): the reduced output tiles return to position-major
//     layout, (D−1)/D of the outT/Nc/(Ng·Nf) payload crossing.
//   - bprop mirrors with X and Y swapped: dY scattered over (g, f), dX
//     gathered over (g, i), dX partial sums reduced across Nf.
//   - updateGrad: WeightCollective; X and dY shards are already
//     co-located from the forward/backward scatters, so no extra traffic.
//
// Every division floors in int64, in that order. At Nf = Ni = 1 each need
// is literally TileTransferPerWorker, which keeps the survivor grids
// ((16,15), (4,63)) on the Section III-C byte counts; a float formula
// drifts from them by tens of bytes.

// ExtPhaseVolumes returns the raw (dense, un-reduced) per-worker traffic
// of one training phase, in bytes: the tile scatter, the tile gather, and
// the intra-cell partial-sum reduction. backward=false is fprop (scatter
// X, reduce+gather Y); backward=true is bprop (scatter dY, reduce+gather
// dX). Callers apply the Section V reductions, the 1-D gather shrink, and
// gather scaling themselves — partial sums take none of them (they move
// not-yet-final sums).
func ExtPhaseVolumes(tr *winograd.Transform, p conv.Params, batch int, s Strategy, backward bool) (scatter, gather, partial int64) {
	d := int64(s.Cell())
	if d <= 1 {
		return 0, 0, 0
	}
	ng, nc := int64(s.Ng), int64(s.Nc)
	nf, ni := int64(s.FilterShards()), int64(s.ChannelShards())

	// Per-worker payloads of the two tile roles inside one cluster.
	inNeed := TileBytes(tr, p, batch, p.In) / nc / (ng * ni)   // X / dX
	outNeed := TileBytes(tr, p, batch, p.Out) / nc / (ng * nf) // Y / dY
	crossing := func(need int64) int64 { return need * (d - 1) / d }

	if backward {
		// bprop: scatter dY over (g, f), gather dX over (g, i), reduce
		// the dX partial sums across the Nf filter shards.
		return crossing(outNeed), crossing(inNeed), inNeed * (nf - 1) / nf
	}
	// fprop: scatter X over (g, i), gather Y over (g, f), reduce the Y
	// partial sums across the Ni input-channel shards.
	return crossing(inNeed), crossing(outNeed), outNeed * (ni - 1) / ni
}

// Factorization is one ordered (Ng, Nc, Nf, Ni) split of the fleet.
type Factorization struct {
	Ng, Nc, Nf, Ni int
}

// Product returns Ng·Nc·Nf·Ni.
func (f Factorization) Product() int { return f.Ng * f.Nc * f.Nf * f.Ni }

// Factorizations enumerates every ordered (Ng, Nc, Nf, Ni) factorization
// of p workers, in deterministic lexicographic order (Ng outermost). The
// planner filters the list per layer (Ng ≤ T², Nc ≤ batch, Nf ≤ Out,
// Ni ≤ In); callers must not rely on any additional ordering property.
func Factorizations(p int) []Factorization {
	var out []Factorization
	for ng := 1; ng <= p; ng++ {
		if p%ng != 0 {
			continue
		}
		rem1 := p / ng
		for nc := 1; nc <= rem1; nc++ {
			if rem1%nc != 0 {
				continue
			}
			rem2 := rem1 / nc
			for nf := 1; nf <= rem2; nf++ {
				if rem2%nf != 0 {
					continue
				}
				out = append(out, Factorization{Ng: ng, Nc: nc, Nf: nf, Ni: rem2 / nf})
			}
		}
	}
	return out
}
