// Package sim is the full-system simulator: it executes one training
// iteration of a convolution layer (or a whole CNN) over p NDP workers
// under each of the paper's Table IV system configurations, producing
// execution time, a four-factor energy breakdown, and traffic counts. The
// phase durations come from the ndp timing model and a link-bandwidth ×
// hop-count network model whose parameters match the flit-level noc
// simulator (which validates them in the bench suite).
package sim

import (
	"fmt"

	"mptwino/internal/comm"
	"mptwino/internal/energy"
	"mptwino/internal/ndp"
	"mptwino/internal/parallel"
	"mptwino/internal/telemetry"
)

// SystemConfig enumerates Table IV.
type SystemConfig int

const (
	// DDp: direct convolution with data parallelism (update w).
	DDp SystemConfig = iota
	// WDp: Winograd convolution with data parallelism (update w).
	WDp
	// WMp: Winograd convolution with MPT at fixed (16,16) (update W).
	WMp
	// WMpPred: WMp + activation prediction and zero-skipping.
	WMpPred
	// WMpDyn: WMp + dynamic clustering.
	WMpDyn
	// WMpFull: WMp + activation prediction/zero-skip + dynamic clustering
	// (the paper's w_mp++).
	WMpFull
)

// String returns the paper's abbreviation.
func (c SystemConfig) String() string {
	switch c {
	case DDp:
		return "d_dp"
	case WDp:
		return "w_dp"
	case WMp:
		return "w_mp"
	case WMpPred:
		return "w_mp+"
	case WMpDyn:
		return "w_mp*"
	case WMpFull:
		return "w_mp++"
	default:
		return fmt.Sprintf("config(%d)", int(c))
	}
}

// AllConfigs returns Table IV in presentation order.
func AllConfigs() []SystemConfig {
	return []SystemConfig{DDp, WDp, WMp, WMpPred, WMpDyn, WMpFull}
}

// usesPrediction reports whether the config applies Section V reductions.
func (c SystemConfig) usesPrediction() bool { return c == WMpPred || c == WMpFull }

// usesDynamicClustering reports whether the config re-wires per layer.
func (c SystemConfig) usesDynamicClustering() bool { return c == WMpDyn || c == WMpFull }

// isMPT reports whether workers are organized in two dimensions.
func (c SystemConfig) isMPT() bool { return c >= WMp }

// System bundles the hardware parameters of one simulated machine.
type System struct {
	Workers int        // p (256 in the paper)
	NDP     ndp.Config // per-worker compute/DRAM model
	Energy  energy.Params

	// Parallel bounds the host goroutines the simulator's sweeps fan out
	// to (layers of SimulateNetwork, the dynamic-clustering menu, and the
	// (layer, config) cells of Sweep). 0 means parallel.DefaultWorkers();
	// 1 forces the sequential path. Results are bit-identical for every
	// value — all reductions fold in deterministic index order.
	Parallel int

	// Link budget per worker, one direction (Table III: four full-width
	// links = 120 GB/s per direction). MPT splits it evenly between the
	// collective rings and the tile-transfer FBFLY (Section VII-A).
	LinkBW float64

	// Reductions holds the Section V traffic-reduction fractions used by
	// prediction-enabled configs.
	Reductions comm.Reductions

	// SerDesSec is the per-hop link latency (5 ns).
	SerDesSec float64

	// Menu overrides the dynamic-clustering configuration menu. When nil,
	// the paper's divisible wirings comm.DefaultConfigs(Workers) apply;
	// the fault-recovery path installs comm.SurvivorConfigs(survivors) so
	// degraded worker counts still get (16, ⌊p/16⌋)-style grids that idle
	// the remainder.
	Menu []comm.ClusterConfig

	// TileCongestion derates the tile-transfer bandwidth for switch-level
	// effects the analytic model misses (head-of-line blocking, XY-route
	// hotspots). Calibrated against the flit-level noc simulator: the
	// measured FBFLY all-to-all time is ~2.4× the hop-weighted bandwidth
	// bound, of which 1.6× is mean hop count, leaving ~1.5× congestion
	// (see figures.NoCValidation).
	TileCongestion float64

	// ChunkBytes is the collective packet size (256 B).
	ChunkBytes int

	// ComputeSpeeds and LinkSpeeds hold per-module capability multipliers
	// in (0, 1] (index = physical module id; nil means a homogeneous fleet)
	// — typically fault.Plan.ModuleSpeeds output. Setting either opts the
	// layer cost model into the heterogeneous-fleet barrier of fleet.go:
	// the synchronous step is gated by the slowest cluster's share/speed
	// ratio. All-1.0 slices reproduce the homogeneous results bit-exactly.
	ComputeSpeeds []float64
	LinkSpeeds    []float64

	// ActiveModules maps worker-grid slots to physical module ids (nil =
	// identity). The fault-recovery path installs the compacted survivor
	// ids so the speed slices keep addressing the right modules after
	// failures renumber the grid.
	ActiveModules []int

	// LoadAware apportions the batch across clusters proportional to
	// effective cluster speed instead of equally — the heterogeneous-fleet
	// counterpart of the paper's B/Nc split (comm.LoadAwareShards).
	LoadAware bool

	// Metrics and Trace attach the deterministic telemetry layer (nil =
	// disabled, the default). Counters are atomic sums bumped from the
	// sweep's worker goroutines (order-independent, so totals are
	// bit-identical at any Parallel setting); trace spans are emitted only
	// from the index-ordered assembly fold, with timestamps in simulated
	// cycles at NDP.ClockHz. See internal/telemetry and DESIGN.md §10.
	Metrics *telemetry.Registry
	Trace   *telemetry.Tracer
}

// DefaultSystem returns the paper's 256-worker evaluation machine.
func DefaultSystem() System {
	return System{
		Workers:        256,
		NDP:            ndp.DefaultConfig(),
		Energy:         energy.DefaultParams(),
		LinkBW:         120e9,
		Reductions:     comm.PaperReductions(),
		SerDesSec:      5e-9,
		TileCongestion: 1.5,
		ChunkBytes:     256,
	}
}

// workers returns the resolved host-goroutine bound for sweep fan-out.
func (s System) workers() int {
	if s.Parallel > 0 {
		return s.Parallel
	}
	return parallel.DefaultWorkers()
}

// clusterMenu returns the (Ng, Nc) wirings dynamic clustering optimizes
// over.
func (s System) clusterMenu() []comm.ClusterConfig {
	if s.Menu != nil {
		return s.Menu
	}
	return comm.DefaultConfigs(s.Workers)
}

// ringBW returns the per-worker outgoing bandwidth available to a weight
// collective: spatial (data-parallel) collectives use all four links as
// rings; Winograd-domain shards get the half MPT leaves beside the FBFLY.
func (s System) ringBW(spatial bool) float64 {
	if spatial {
		return s.LinkBW
	}
	return s.LinkBW / 2
}
