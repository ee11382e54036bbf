package main

import "fmt"

// Per-layer metric kinds: perOp values are sums over the traced ops
// divided by their count; value metrics are reported as set; derived
// metrics are computed from other sums in finalize.
const (
	perOp = iota
	value
	derived
)

// layerMetric is one entry of the per-layer catalog.
type layerMetric struct {
	name, unit string
	kind       int
}

// layerMetrics is the catalog of per-layer metrics that finalize reports.
// Every traced run reports all of them, plus the runtime.* and
// trace.overhead_ratio metrics of the untraced phase; those a workload
// does not reach read 0.
var layerMetrics = append(callMetrics(),
	layerMetric{"mpt.self_s", "s", perOp},
	layerMetric{"mpt.alloc_bytes_per_op", "bytes", perOp},
	layerMetric{"mpt.allocs_per_op", "count", perOp},
	layerMetric{"mpt.scatter_bytes", "bytes", perOp},
	layerMetric{"mpt.gather_bytes", "bytes", perOp},
	layerMetric{"mpt.predict_bytes", "bytes", perOp},
	layerMetric{"mpt.collective_bytes", "bytes", perOp},
	layerMetric{"winograd.transform_input_s", "s", perOp},
	layerMetric{"winograd.inverse_output_s", "s", perOp},
	layerMetric{"winograd.transform_outgrad_s", "s", perOp},
	layerMetric{"winograd.inverse_inputgrad_s", "s", perOp},
	layerMetric{"winograd.mul_forward_s", "s", perOp},
	layerMetric{"winograd.mul_backward_s", "s", perOp},
	layerMetric{"winograd.mul_grad_s", "s", perOp},
	layerMetric{"winograd.transform_share", "ratio", derived},
	layerMetric{"winograd.tiles_per_s", "1/s", derived},
	layerMetric{"tensor.gemm_gmacs_per_s", "GMAC/s", derived},
	layerMetric{"quant.calibrate_s", "s", perOp},
	layerMetric{"quant.predict_s", "s", perOp},
	layerMetric{"quant.tiles_predicted", "count", perOp},
	layerMetric{"quant.tiles_skipped", "count", perOp},
	layerMetric{"quant.ns_per_tile", "ns", derived},
	layerMetric{"quant.skip_ratio", "ratio", derived},
	layerMetric{"planner.build_s", "s", perOp},
	layerMetric{"planner.candidates", "count", perOp},
	layerMetric{"planner.pruned", "count", perOp},
	layerMetric{"planner.prune_ratio", "ratio", derived},
	layerMetric{"sim.simulate_plan_s", "s", perOp},
	layerMetric{"sim.model_iter_s.vgg16", "sim_s", value},
	layerMetric{"sim.model_iter_s.alexnet", "sim_s", value},
	layerMetric{"noc.validate_s", "s", perOp},
	layerMetric{"noc.sim_cycles", "cycles", perOp},
	layerMetric{"noc.checks", "count", perOp},
	layerMetric{"noc.model_ratio_max", "ratio", value},
	layerMetric{"noc.cycles_per_s", "1/s", derived},
)

// callMetrics are the engine-call times, summed and split per conv layer.
func callMetrics() []layerMetric {
	var out []layerMetric
	for _, call := range []string{"fprop", "fprop_relu", "bprop", "updategrad", "step"} {
		out = append(out, layerMetric{"mpt." + call + "_s", "s", perOp})
		for l := 0; l < 3; l++ {
			out = append(out, layerMetric{fmt.Sprintf("mpt.%s_s.l%d", call, l), "s", perOp})
		}
	}
	return out
}

// Accumulators that only feed derived metrics.
const (
	accTiles   = "winograd.tiles"  // tiles through the four transform stages
	accDotMACs = "tensor.dot_macs" // element-product MACs of the mul stages
)

var (
	transformStages = []string{"winograd.transform_input_s", "winograd.inverse_output_s", "winograd.transform_outgrad_s", "winograd.inverse_inputgrad_s"}
	mulStages       = []string{"winograd.mul_forward_s", "winograd.mul_backward_s", "winograd.mul_grad_s"}
)

// layerAcc accumulates per-layer quantities over the traced ops.
type layerAcc struct{ v map[string]float64 }

func newLayerAcc() *layerAcc { return &layerAcc{v: map[string]float64{}} }

func (a *layerAcc) add(name string, x float64) { a.v[name] += x }

// addLayer adds x to a per-call metric and to its conv-layer split.
func (a *layerAcc) addLayer(name string, layer int, x float64) {
	a.v[name] += x
	a.v[fmt.Sprintf("%s.l%d", name, layer)] += x
}

func (a *layerAcc) set(name string, x float64) { a.v[name] = x }

func (a *layerAcc) max(name string, x float64) {
	if x > a.v[name] {
		a.v[name] = x
	}
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// finalize turns the sums over the traced ops into the catalog's metrics.
func (a *layerAcc) finalize(ops int) map[string]metric {
	var transform, mul float64
	for _, n := range transformStages {
		transform += a.v[n]
	}
	for _, n := range mulStages {
		mul += a.v[n]
	}
	derivedVals := map[string]float64{
		"winograd.transform_share": ratio(transform, transform+mul),
		"winograd.tiles_per_s":     ratio(a.v[accTiles], transform),
		"tensor.gemm_gmacs_per_s":  ratio(a.v[accDotMACs], mul) / 1e9,
		"quant.ns_per_tile":        ratio(a.v["quant.predict_s"], a.v["quant.tiles_predicted"]) * 1e9,
		"quant.skip_ratio":         ratio(a.v["quant.tiles_skipped"], a.v["quant.tiles_predicted"]),
		"planner.prune_ratio":      ratio(a.v["planner.pruned"], a.v["planner.candidates"]),
		"noc.cycles_per_s":         ratio(a.v["noc.sim_cycles"], a.v["noc.validate_s"]),
	}
	out := make(map[string]metric, len(layerMetrics)+3)
	for _, e := range layerMetrics {
		var x float64
		switch e.kind {
		case perOp:
			x = a.v[e.name] / float64(ops)
		case value:
			x = a.v[e.name]
		case derived:
			x = derivedVals[e.name]
		}
		out[e.name] = metric{x, e.unit}
	}
	return out
}
