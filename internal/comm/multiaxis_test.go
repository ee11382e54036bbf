package comm

import (
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/model"
	"mptwino/internal/winograd"
)

// sectionIIIC is the paper's closed-form per-worker traffic of an
// Nf = Ni = 1 Winograd strategy (Section III-C), written out from
// TileTransferPerWorker and RingCollectivePerWorker as the reference the
// one phase model must reproduce.
func sectionIIIC(tr *winograd.Transform, p conv.Params, batch int, s Strategy) Volumes {
	if s.Ng == 1 {
		// w_dp: spatial weights reduced across every worker, no tiles.
		return Volumes{Weight: RingCollectivePerWorker(SpatialWeightBytes(p), s.Workers())}
	}
	in := TileBytes(tr, p, batch, p.In)
	out := TileBytes(tr, p, batch, p.Out)
	gather := TileTransferPerWorker(out, s.Ng, s.Nc) + TileTransferPerWorker(in, s.Ng, s.Nc)
	scatter := TileTransferPerWorker(in, s.Ng, s.Nc) + TileTransferPerWorker(out, s.Ng, s.Nc)
	if winograd.HoldsWholeLines(tr.T, s.Ng) {
		gather = gather * int64(tr.M) / int64(tr.T)
	}
	return Volumes{
		Weight:      RingCollectivePerWorker(WinogradWeightBytes(tr, p)/int64(s.Ng), s.Nc),
		TileGather:  int64(float64(gather) * (1 - s.GatherReduction)),
		TileScatter: int64(float64(scatter) * (1 - s.ScatterReduction)),
	}
}

// TestExtendedVolumesDegenerate pins the one four-axis model to the
// paper's closed form: at Nf = Ni = 1, LayerVolumes must equal the
// Section III-C formula exactly for every catalog layer on the healthy
// menu and on the survivor grids — (16,15) and (4,63) divide no tile
// volume evenly, which is where a float formula drifts off the int64
// floors.
func TestExtendedVolumesDegenerate(t *testing.T) {
	nets := append(model.AllNetworks(), model.VGG16(), model.AlexNet(),
		model.Network{Name: "TableII", Batch: 256, Layers: model.FiveLayers()},
		model.Network{Name: "TableII-5x5", Batch: 256, Layers: model.FiveLayers5x5()})
	var grids []ClusterConfig
	grids = append(grids, DefaultConfigs(256)...)
	grids = append(grids, SurvivorConfigs(255)...)
	grids = append(grids, SurvivorConfigs(240)...)
	for _, net := range nets {
		for _, l := range net.Layers {
			for _, cfg := range grids {
				for _, pred := range []bool{false, true} {
					s, tr := StrategyFor(cfg, l.P.K, pred, PaperReductions())
					s.Nf, s.Ni = 1, 1
					got := LayerVolumes(tr, l.P, net.Batch, s)
					if want := sectionIIIC(tr, l.P, net.Batch, s); got != want {
						t.Errorf("%s %s (Ng=%d,Nc=%d) pred=%v: model %+v != closed form %+v",
							net.Name, l.Name, cfg.Ng, cfg.Nc, pred, got, want)
					}
				}
			}
			// d_dp: direct convolution reduces spatial weights over all p.
			d := Strategy{Ng: 1, Nc: 256}
			want := Volumes{Weight: RingCollectivePerWorker(SpatialWeightBytes(l.P), 256)}
			if got := LayerVolumes(nil, l.P, net.Batch, d); got != want {
				t.Errorf("%s %s d_dp: %+v != %+v", net.Name, l.Name, got, want)
			}
		}
	}
}

// TestExtendedVolumesAxes checks the qualitative structure of the new
// axes: partial sums appear exactly when a channel/filter axis is in
// play, and sharding channels shrinks the weight collective.
func TestExtendedVolumesAxes(t *testing.T) {
	l := model.VGG16().Layers[7] // a mid-network 3×3 layer
	tr, err := winograd.ForKernel(l.P.K, 4)
	if err != nil {
		t.Fatal(err)
	}
	base := Strategy{Ng: 4, Nc: 16, Nf: 1, Ni: 1, Winograd: true}
	fs := Strategy{Ng: 4, Nc: 16, Nf: 4, Ni: 1, Winograd: true}
	cs := Strategy{Ng: 4, Nc: 16, Nf: 1, Ni: 4, Winograd: true}

	vb := LayerVolumes(tr, l.P, 256, base)
	vf := LayerVolumes(tr, l.P, 256, fs)
	vc := LayerVolumes(tr, l.P, 256, cs)

	if vb.PartialSum != 0 {
		t.Errorf("no shard axes but PartialSum=%d", vb.PartialSum)
	}
	if vf.PartialSum <= 0 || vc.PartialSum <= 0 {
		t.Errorf("shard axes must add partial-sum traffic: filter=%d channel=%d",
			vf.PartialSum, vc.PartialSum)
	}
	if vf.Weight >= vb.Weight || vc.Weight >= vb.Weight {
		t.Errorf("sharding must shrink the per-worker weight collective: base=%d filter=%d channel=%d",
			vb.Weight, vf.Weight, vc.Weight)
	}
}

// TestExtPhaseVolumesMirror checks the fprop/bprop duality: swapping the
// direction swaps the scatter and gather payload roles.
func TestExtPhaseVolumesMirror(t *testing.T) {
	l := model.VGG16().Layers[4]
	tr, err := winograd.ForKernel(l.P.K, 4)
	if err != nil {
		t.Fatal(err)
	}
	s := Strategy{Ng: 4, Nc: 8, Nf: 2, Ni: 4, Winograd: true}
	sF, gF, _ := ExtPhaseVolumes(tr, l.P, 256, s, false)
	sB, gB, _ := ExtPhaseVolumes(tr, l.P, 256, s, true)
	if sF != gB || gF != sB {
		t.Errorf("fprop (s=%d,g=%d) and bprop (s=%d,g=%d) are not mirrored", sF, gF, sB, gB)
	}
}

// TestFactorizations checks the enumerator's contract: every quadruple
// multiplies to p, there are no duplicates, the menu anchors appear, and
// the order is deterministic.
func TestFactorizations(t *testing.T) {
	for _, p := range []int{1, 2, 4, 16, 60, 256} {
		fs := Factorizations(p)
		seen := make(map[Factorization]bool, len(fs))
		for _, f := range fs {
			if f.Product() != p {
				t.Fatalf("p=%d: %+v multiplies to %d", p, f, f.Product())
			}
			if seen[f] {
				t.Fatalf("p=%d: duplicate %+v", p, f)
			}
			seen[f] = true
		}
		again := Factorizations(p)
		if len(again) != len(fs) {
			t.Fatalf("p=%d: non-deterministic length", p)
		}
		for i := range fs {
			if fs[i] != again[i] {
				t.Fatalf("p=%d: non-deterministic order at %d", p, i)
			}
		}
	}

	fs := Factorizations(256)
	for _, want := range []Factorization{
		{Ng: 16, Nc: 16, Nf: 1, Ni: 1},
		{Ng: 4, Nc: 64, Nf: 1, Ni: 1},
		{Ng: 1, Nc: 256, Nf: 1, Ni: 1},
		{Ng: 4, Nc: 16, Nf: 2, Ni: 2},
	} {
		found := false
		for _, f := range fs {
			if f == want {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("Factorizations(256) missing %+v", want)
		}
	}
}
