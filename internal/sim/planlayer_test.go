package sim

import (
	"math"
	"testing"

	"mptwino/internal/comm"
	"mptwino/internal/model"
)

// TestSimulateLayerStrategyMatchesFixedGrid pins the oracle entry point
// to the fixed-config paths, on a healthy 256-worker system and on a
// 255-survivor system whose menu idles part of the grid: the menu's
// leading (Ng, Nc) must reproduce SimulateLayer(WMp), the one-worker-cell
// strategy SimulateLayer(WDp) (spatial weights on the w_dp ring), and
// every dynamic-clustering menu cell the time w_mp++ recorded for it.
func TestSimulateLayerStrategyMatchesFixedGrid(t *testing.T) {
	survivor := DefaultSystem()
	survivor.Workers = 255
	survivor.Menu = comm.SurvivorConfigs(255)
	net := model.VGG16()
	for _, s := range []System{DefaultSystem(), survivor} {
		same := func(what string, got, want LayerResult) {
			t.Helper()
			if got.TotalSec() != want.TotalSec() || got.NetBytes != want.NetBytes ||
				got.DRAMBytes != want.DRAMBytes || got.BoundBytes != want.BoundBytes {
				t.Fatalf("p=%d %s %s: strategy oracle %+v != fixed config %+v", s.Workers, got.Name, what, got, want)
			}
		}
		menu := s.clusterMenu()
		for _, l := range net.Layers {
			st, _ := comm.StrategyFor(menu[0], l.P.K, false, s.Reductions)
			same("w_mp", s.SimulateLayerStrategy(l, net.Batch, WMp, st), s.SimulateLayer(l, net.Batch, WMp))

			st = comm.Strategy{Ng: 1, Nc: s.Workers, Winograd: true}
			same("w_dp", s.SimulateLayerStrategy(l, net.Batch, WDp, st), s.SimulateLayer(l, net.Batch, WDp))

			dyn := s.SimulateLayer(l, net.Batch, WMpFull)
			for i, cc := range menu {
				st, _ := comm.StrategyFor(cc, l.P.K, true, s.Reductions)
				got := s.SimulateLayerStrategy(l, net.Batch, WMpFull, st)
				if got.TotalSec() != dyn.Menu[i].TotalSec {
					t.Fatalf("p=%d %s w_mp++ cell (%d,%d): oracle %g != menu %g",
						s.Workers, l.Name, cc.Ng, cc.Nc, got.TotalSec(), dyn.Menu[i].TotalSec)
				}
			}
		}
	}
}

// TestSimulateLayerStrategyDirect checks the non-Winograd branch routes
// to the d_dp phase model.
func TestSimulateLayerStrategyDirect(t *testing.T) {
	s := DefaultSystem()
	net := model.VGG16()
	l := net.Layers[0]
	st := comm.Strategy{Ng: 1, Nc: s.Workers}
	got := s.SimulateLayerStrategy(l, net.Batch, WMpFull, st)
	want := s.SimulateLayer(l, net.Batch, DDp)
	if got.TotalSec() != want.TotalSec() {
		t.Fatalf("direct strategy %g != DDp %g", got.TotalSec(), want.TotalSec())
	}
	if got.Config != DDp {
		t.Fatalf("direct strategy kept config %v", got.Config)
	}
}

// TestExtendedStrategySane checks structural properties of the extended
// phase model: finite positive time, partial-sum traffic on the tile
// fabric, and a weight collective that shrinks with the cell size.
func TestExtendedStrategySane(t *testing.T) {
	s := DefaultSystem()
	net := model.VGG16()
	l := net.Layers[7]

	base := comm.Strategy{Ng: 4, Nc: 64, Nf: 1, Ni: 1, Winograd: true}
	ext := comm.Strategy{Ng: 4, Nc: 16, Nf: 2, Ni: 2, Winograd: true}
	rb := s.SimulateLayerStrategy(l, net.Batch, WMp, base)
	re := s.SimulateLayerStrategy(l, net.Batch, WMp, ext)

	for _, r := range []LayerResult{rb, re} {
		if !(r.TotalSec() > 0) || math.IsInf(r.TotalSec(), 0) || math.IsNaN(r.TotalSec()) {
			t.Fatalf("%s: bad total %g", r.Name, r.TotalSec())
		}
	}
	if re.Nf != 2 || re.Ni != 2 {
		t.Fatalf("shard axes not recorded: %+v", re)
	}
	if re.CollBytes >= rb.CollBytes {
		t.Fatalf("cell sharding must shrink the collective: ext=%d base=%d", re.CollBytes, rb.CollBytes)
	}
	if re.TileBytes <= 0 {
		t.Fatalf("extended strategy moved no tile bytes")
	}
}
