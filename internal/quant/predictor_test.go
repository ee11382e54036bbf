package quant

import (
	"math"
	"testing"

	"mptwino/internal/conv"
	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// The per-tile MatMul passes below are the reference the lane executor
// must match bit for bit: each stage of Section V-A's prediction as one
// naive tensor.MatMul over the tile, with the PN splits materialized.

// refPredict2D is 2-D prediction as plain matrix products.
func refPredict2D(p *Predictor, y *tensor.Mat) *Prediction {
	tr := p.Tr
	atPos, atNeg := winograd.PNSplit(tr.AT)
	aPos, aNeg := winograd.PNSplit(tr.A)
	qv := tensor.NewMat(tr.T, tr.T)
	res := tensor.NewMat(tr.T, tr.T)
	overflow := p.Q.QuantizeSlice(y.Data, qv.Data, res.Data)

	z := tensor.MatMul(qv, tr.A)       // T×m estimated stage-1
	pos1 := tensor.MatMul(res, aPos)   // T×m positive error bound
	neg1 := tensor.MatMul(res, aNeg)   // T×m negative error bound (≤0)
	est := tensor.MatMul(tr.AT, z)     // m×m
	maxe := tensor.MatMul(atPos, pos1) // positive coeff × positive err
	tmp := tensor.MatMul(atNeg, neg1)  // negative coeff × negative err
	for i := range maxe.Data {
		maxe.Data[i] += tmp.Data[i]
	}
	return &Prediction{Est: est, MaxErr: maxe, Overflow: overflow}
}

// refPredict1D is 1-D prediction as plain matrix products.
func refPredict1D(p *Predictor, y *tensor.Mat) *Prediction {
	tr := p.Tr
	atPos, _ := winograd.PNSplit(tr.AT)
	z := tensor.MatMul(y, tr.A) // T×m, exact at the source
	qz := tensor.NewMat(z.Rows, z.Cols)
	rz := tensor.NewMat(z.Rows, z.Cols)
	overflow := p.Q.QuantizeSlice(z.Data, qz.Data, rz.Data)
	est := tensor.MatMul(tr.AT, qz)
	maxe := tensor.MatMul(atPos, rz)
	return &Prediction{Est: est, MaxErr: maxe, Overflow: overflow}
}

// refDead is the per-tile skip decision the engine takes: every line dead
// under 1-D prediction, the whole tile under 2-D.
func refDead(p *Predictor, y *tensor.Mat, oneD bool) bool {
	if oneD {
		return refPredict1D(p, y).NonActivated()
	}
	return refPredict2D(p, y).NonActivated()
}

// trueNonActivatedRows is the per-row oracle for 1-D prediction.
func trueNonActivatedRows(tr *winograd.Transform, y *tensor.Mat) []bool {
	out := tr.OutputFromWinograd(y)
	rows := make([]bool, out.Rows)
	for r := range rows {
		rows[r] = allNegative(out.Data[r*out.Cols : (r+1)*out.Cols])
	}
	return rows
}

// handAssembled is F(2×2,3×3) built outside MakeTransform, with no
// compiled transform schedules.
func handAssembled() *winograd.Transform {
	src := winograd.F2x2_3x3
	return &winograd.Transform{M: src.M, R: src.R, T: src.T,
		G: src.G, BT: src.BT, AT: src.AT, B: src.B, A: src.A, GT: src.GT}
}

// predictorTransforms are the paper's transforms, F(6×6,3×3), F(6×6,5×5)
// (a 10×10 tile, past the sizes MakeTransform compiles schedules for) and
// a hand-assembled one.
func predictorTransforms() []*winograd.Transform {
	return []*winograd.Transform{winograd.F2x2_3x3, winograd.F4x4_3x3, winograd.F6x6_3x3,
		winograd.F2x2_5x5, winograd.MustTransform(6, 5), handAssembled()}
}

// outputDomain runs a real Winograd forward pass — b images of 4 normal
// input channels through c He-initialized filters over a tiles×tiles grid
// — and shifts the output by bias sigmas toward non-activation, the way
// the Fig. 12 workload does. It returns the output Domain and its sigma.
func outputDomain(t testing.TB, tr *winograd.Transform, b, c, tiles int, bias float32, seed uint64) (*winograd.Domain, float32) {
	side := tiles * tr.M
	p := conv.Params{In: 4, Out: c, K: tr.R, Pad: conv.SamePad(tr.R), H: side, W: side}
	tl, err := winograd.NewTiling(tr, p)
	if err != nil {
		t.Fatal(err)
	}
	r := tensor.NewRNG(seed)
	x := tensor.New(b, p.In, p.H, p.W)
	w := tensor.New(p.Out, p.In, p.K, p.K)
	r.FillNormal(x, 0, 1)
	r.FillHe(w, p.In*p.K*p.K)
	yd := winograd.MulForward(tl.TransformInput(x), winograd.TransformWeights(tr, w), nil)
	sigma := DomainSigma(yd)
	yd.AddOutputBias(bias * sigma)
	return yd, sigma
}

// tileAt extracts tile i (row·C + channel) of yd.
func tileAt(yd *winograd.Domain, i int) *tensor.Mat {
	tr := yd.Tiling.Tr
	tile := tensor.NewMat(tr.T, tr.T)
	for e, el := range yd.El {
		tile.Data[e] = el.Data[i]
	}
	return tile
}

func sameBits(a, b []float32) bool {
	for i := range a {
		if math.Float32bits(a[i]) != math.Float32bits(b[i]) {
			return false
		}
	}
	return len(a) == len(b)
}

// TestPredictorLanesMatchPerTile pins the lane executor bit-identical to
// the MatMul reference: estimates, error bounds, overflow flags, dead
// lines and dead tiles, for every lane of full and tail batches, through
// DeadTiles at the engine's 1-D/2-D choice for Ng ∈ {1, 2, 4, 16}, and
// through the one-tile Predict1D/Predict2D wrappers.
func TestPredictorLanesMatchPerTile(t *testing.T) {
	dead := map[bool]map[bool]int{false: {}, true: {}} // oneD → dead → tiles
	for ti, tr := range predictorTransforms() {
		// 2 images × 3 channels × 3² tiles = 54 tiles: six full lane
		// batches and a tail of 6.
		yd, sigma := outputDomain(t, tr, 2, 3, 3, -1.5, uint64(31+ti))
		n := yd.Rows() * yd.C
		for _, cfg := range []struct{ regions, bits int }{{1, 4}, {4, 5}, {4, 6}} {
			p := NewPredictor(tr, MustQuantizer(cfg.regions, cfg.bits, sigma))
			var sc Scratch
			sc.size(tr.T, tr.M)
			for _, oneD := range []bool{false, true} {
				for i0 := 0; i0 < n; i0 += lanes {
					nl := min(lanes, n-i0)
					sc.load(yd, i0, nl)
					p.run(&sc, nl, oneD)
					for l := 0; l < nl; l++ {
						tile := tileAt(yd, i0+l)
						ref := refPredict2D(p, tile)
						if oneD {
							ref = refPredict1D(p, tile)
						}
						est := make([]float32, tr.M*tr.M)
						maxe := make([]float32, tr.M*tr.M)
						for i := range est {
							est[i], maxe[i] = sc.est[i*lanes+l], sc.maxe[i*lanes+l]
						}
						if !sameBits(est, ref.Est.Data) || !sameBits(maxe, ref.MaxErr.Data) || sc.ov[l] != ref.Overflow {
							t.Fatalf("%s r%d b%d oneD=%v tile %d: lanes est %v maxErr %v ov %v, reference %v %v %v",
								tr, cfg.regions, cfg.bits, oneD, i0+l, est, maxe, sc.ov[l], ref.Est.Data, ref.MaxErr.Data, ref.Overflow)
						}
						for r, want := range ref.NonActivatedRows() {
							if sc.rowDead(tr.M, l, r) != want {
								t.Fatalf("%s oneD=%v tile %d row %d: dead line %v, reference %v", tr, oneD, i0+l, r, !want, want)
							}
						}
						dead[oneD][sc.tileDead(tr.M, l)]++
						one := p.Predict2D(tile)
						if oneD {
							one = p.Predict1D(tile)
						}
						if !sameBits(one.Est.Data, ref.Est.Data) || !sameBits(one.MaxErr.Data, ref.MaxErr.Data) || one.Overflow != ref.Overflow {
							t.Fatalf("%s oneD=%v tile %d: one-tile wrapper differs from the reference", tr, oneD, i0+l)
						}
					}
				}
			}

			for _, ng := range []int{1, 2, 4, 16} {
				if ng > tr.T*tr.T {
					continue
				}
				oneD := winograd.HoldsWholeLines(tr.T, ng)
				// Two ranges split off the lane grid, as parallel chunks.
				got := make([]bool, n)
				p.DeadTiles(got[:13], yd, 0, oneD, &sc)
				p.DeadTiles(got[13:], yd, 13, oneD, &sc)
				for i := range got {
					if want := refDead(p, tileAt(yd, i), oneD); got[i] != want {
						t.Fatalf("%s Ng=%d tile %d: DeadTiles %v, reference %v", tr, ng, i, got[i], want)
					}
				}
			}
		}
	}
	for _, oneD := range []bool{false, true} {
		if dead[oneD][true] == 0 || dead[oneD][false] == 0 {
			t.Errorf("oneD=%v: %d dead and %d live tiles; the workload must exercise both decisions",
				oneD, dead[oneD][true], dead[oneD][false])
		}
	}
}

// FuzzPredictorLanesMatchPerTile draws a transform, quantizer, tile count
// and tile values, injects arbitrary (also non-finite) values, and checks
// the lane executor's skip decisions against the per-tile reference, and
// that no tile holding a non-finite value is ever skipped.
func FuzzPredictorLanesMatchPerTile(f *testing.F) {
	f.Add(uint8(0), uint8(2), uint8(9), uint64(1), float32(-1), uint16(3), float32(0.5), uint16(40))
	f.Add(uint8(1), uint8(0), uint8(3), uint64(2), float32(math.NaN()), uint16(0), float32(math.Inf(-1)), uint16(7))
	f.Add(uint8(2), uint8(1), uint8(17), uint64(3), float32(math.Inf(1)), uint16(100), float32(-3e38), uint16(5))
	f.Add(uint8(4), uint8(2), uint8(1), uint64(4), float32(-2), uint16(1), float32(math.NaN()), uint16(2))
	trs := predictorTransforms()
	cfgs := []struct{ regions, bits int }{{1, 4}, {4, 5}, {4, 6}}
	f.Fuzz(func(t *testing.T, sel, cfg, c uint8, seed uint64, v0 float32, at0 uint16, v1 float32, at1 uint16) {
		tr := trs[int(sel)%len(trs)]
		yd, sigma := outputDomain(t, tr, 1, 1+int(c)%20, 2, -0.6, seed)
		n := yd.Rows() * yd.C
		t2 := tr.T * tr.T
		for _, inj := range []struct {
			v  float32
			at uint16
		}{{v0, at0}, {v1, at1}} {
			i := int(inj.at) % (n * t2)
			yd.El[i%t2].Data[i/t2] = inj.v
		}
		q := cfgs[int(cfg)%len(cfgs)]
		p := NewPredictor(tr, MustQuantizer(q.regions, q.bits, sigma))
		var sc Scratch
		for _, oneD := range []bool{false, true} {
			got := make([]bool, n)
			p.DeadTiles(got, yd, 0, oneD, &sc)
			for i := range got {
				tile := tileAt(yd, i)
				if want := refDead(p, tile, oneD); got[i] != want {
					t.Fatalf("%s oneD=%v tile %d %v: lanes dead %v, reference %v", tr, oneD, i, tile.Data, got[i], want)
				}
				if !got[i] {
					continue
				}
				for _, v := range tile.Data {
					if math.IsNaN(float64(v)) || math.IsInf(float64(v), 0) {
						t.Fatalf("%s oneD=%v tile %d holds %v and was skipped", tr, oneD, i, v)
					}
				}
			}
		}
	})
}

// TestQuantizeNonFiniteOverflows pins NaN and ±Inf as overflow: their
// int conversion is implementation-defined in Go, so the quantizer must
// not depend on it.
func TestQuantizeNonFiniteOverflows(t *testing.T) {
	q := MustQuantizer(4, 6, 1)
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1)), 3e38, -3e38} {
		if _, _, ov := q.Quantize(v); !ov {
			t.Errorf("Quantize(%v) not flagged as overflow", v)
		}
	}
}

// TestNonFiniteTileNeverSkipped: a tile holding NaN or ±Inf in any element
// must be treated as activated by both predictors, whatever its other
// values say.
func TestNonFiniteTileNeverSkipped(t *testing.T) {
	tr := winograd.F2x2_3x3
	neg := realOutputTile(tr, -1)
	p := NewPredictor(tr, MustQuantizer(4, 6, EstimateSigma(neg.Data)))
	if !p.Predict2D(neg).NonActivated() || !p.Predict1D(neg).NonActivated() {
		t.Fatal("test setup: negative tile is not predicted non-activated")
	}
	for _, v := range []float32{float32(math.NaN()), float32(math.Inf(1)), float32(math.Inf(-1))} {
		for e := range neg.Data {
			tile := neg.Clone()
			tile.Data[e] = v
			if p.Predict2D(tile).NonActivated() || p.Predict1D(tile).NonActivated() {
				t.Fatalf("tile with %v at element %d predicted non-activated", v, e)
			}
		}
	}
}

// TestDomainSigmaMatchesEstimateSigma: the copy-free Domain estimator must
// equal EstimateSigma over the concatenated element slices bit for bit.
func TestDomainSigmaMatchesEstimateSigma(t *testing.T) {
	for i, tr := range predictorTransforms() {
		yd, _ := outputDomain(t, tr, 2, 5, 3, -0.4, uint64(7+i))
		var sample []float32
		for _, el := range yd.El {
			sample = append(sample, el.Data...)
		}
		if got, want := DomainSigma(yd), EstimateSigma(sample); math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("%s: DomainSigma %v, EstimateSigma %v", tr, got, want)
		}
	}
}
