package quant

import (
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// GatherStats summarizes activation prediction over a set of output tiles —
// the quantities plotted in Fig. 12 and quoted in Section V-B.
type GatherStats struct {
	Tiles           int // tiles examined
	TrueNonActTiles int // oracle: all neurons of the tile < 0
	PredNonActTiles int // 2-D predict: tile provably non-activated
	Lines           int // tile lines examined (Tiles × m rows)
	TrueNonActLines int // oracle per line
	PredNonActLines int // 1-D predict per line
	FalseNegatives  int // predicted non-activated but actually activated (must stay 0)
}

// TileSkipRatio returns the fraction of tiles whose gathering is skipped
// under 2-D prediction.
func (s GatherStats) TileSkipRatio() float64 {
	if s.Tiles == 0 {
		return 0
	}
	return float64(s.PredNonActTiles) / float64(s.Tiles)
}

// LineSkipRatio returns the fraction of tile lines skipped under 1-D
// prediction.
func (s GatherStats) LineSkipRatio() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.PredNonActLines) / float64(s.Lines)
}

// TrueTileRatio / TrueLineRatio are the oracle upper limits (the dotted
// lines of Fig. 12).
func (s GatherStats) TrueTileRatio() float64 {
	if s.Tiles == 0 {
		return 0
	}
	return float64(s.TrueNonActTiles) / float64(s.Tiles)
}

// TrueLineRatio is the oracle fraction of fully non-activated lines.
func (s GatherStats) TrueLineRatio() float64 {
	if s.Lines == 0 {
		return 0
	}
	return float64(s.TrueNonActLines) / float64(s.Lines)
}

// MeasureGather runs both predictors over every (tile, output channel) of a
// Winograd-domain output Domain and tallies prediction quality. pred2D and
// pred1D may use different quantizers (the paper uses 6-bit for 2-D and
// 5-bit for 1-D). Both run on the lane executor, a lane batch at a time;
// the oracle inverse-transforms each tile into reused scratch.
func MeasureGather(yd *winograd.Domain, pred2D, pred1D *Predictor) GatherStats {
	tr := yd.Tiling.Tr
	m := tr.M
	var s GatherStats
	var sc Scratch
	sc.size(tr.T, m)
	tile := tensor.NewMat(tr.T, tr.T)
	out := tensor.NewMat(m, m)
	tmp := make([]float32, tr.TmpLen())
	var dead2D [lanes]bool
	n := yd.Rows() * yd.C
	for i0 := 0; i0 < n; i0 += lanes {
		nl := min(lanes, n-i0)
		sc.load(yd, i0, nl)
		pred2D.run(&sc, nl, false)
		for l := 0; l < nl; l++ {
			dead2D[l] = sc.tileDead(m, l)
		}
		pred1D.run(&sc, nl, true)
		for l := 0; l < nl; l++ {
			for e, el := range yd.El {
				tile.Data[e] = el.Data[i0+l]
			}
			tr.OutputFromWinogradInto(out, tile, tmp)
			s.Tiles++
			trueTile := allNegative(out.Data)
			if trueTile {
				s.TrueNonActTiles++
			}
			if dead2D[l] {
				s.PredNonActTiles++
				if !trueTile {
					s.FalseNegatives++
				}
			}

			// 1-D prediction skips whole source lines (rows of the
			// Winograd-domain tile map to columns of Z; we count the m×m
			// output's rows against the oracle's rows).
			s.Lines += m
			for r := 0; r < m; r++ {
				trueRow := allNegative(out.Data[r*m : r*m+m])
				if trueRow {
					s.TrueNonActLines++
				}
				if sc.rowDead(m, l, r) {
					s.PredNonActLines++
					if !trueRow {
						s.FalseNegatives++
					}
				}
			}
		}
	}
	return s
}

// ScatterZeroRatio returns the fraction of exactly-zero elements in a
// Winograd-domain input Domain — the data removable by zero-skipping during
// tile scattering (Section V-B: "zero values of input tiles can be
// omitted"). Zeros arise from ReLU sparsity in the previous layer's output.
func ScatterZeroRatio(xd *winograd.Domain) float64 {
	var zero, total int64
	for _, el := range xd.El {
		for _, v := range el.Data {
			if v == 0 {
				zero++
			}
			total++
		}
	}
	if total == 0 {
		return 0
	}
	return float64(zero) / float64(total)
}

// GatherTrafficReduction converts a skip ratio into the net communication
// reduction of tile gathering, accounting for the quantized prediction
// pre-send of codeBits per element: skipped tiles avoid their 32-bit
// payload, but every tile pays the quantized header.
func GatherTrafficReduction(skipRatio float64, codeBits int) float64 {
	overhead := float64(codeBits) / 32.0
	reduction := skipRatio - overhead
	if reduction < 0 {
		return 0
	}
	return reduction
}
