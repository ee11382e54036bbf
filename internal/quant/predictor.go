package quant

import (
	"fmt"
	"sync"

	"mptwino/internal/tensor"
	"mptwino/internal/winograd"
)

// Predictor implements the activation prediction of Section V-A: from
// quantized Winograd-domain output values it computes, at the destination
// worker, both an estimate of every spatial neuron and the maximum possible
// positive quantization error, and declares a neuron non-activated only
// when estimate + maxErr < 0. Because quantization errors are one-sided
// (e ∈ [0, res]) and the bound is propagated through the positive and
// negative inverse-transform coefficients separately, the prediction can
// never produce a false negative: a neuron predicted non-activated is
// guaranteed non-activated.
//
// Every prediction runs on one executor (run) that handles
// winograd.Lanes tiles per pass; Predict1D and Predict2D are that executor
// at one tile, and DeadTiles runs it straight off an output Domain.
type Predictor struct {
	Tr *winograd.Transform
	Q  *Quantizer

	// Compiled row schedules of Aᵀ and its PN split. They serve both
	// multiplication sides: the schedule of Aᵀ drives y·A row by row, and
	// pos(A)ᵀ = pos(Aᵀ), neg(A)ᵀ = neg(Aᵀ) drive res·pos(A), res·neg(A).
	at, atPos, atNeg *winograd.Sched
}

// NewPredictor builds a predictor for the given transform and quantizer.
func NewPredictor(tr *winograd.Transform, q *Quantizer) *Predictor {
	pos, neg := winograd.PNSplit(tr.AT)
	return &Predictor{
		Tr:    tr,
		Q:     q,
		at:    winograd.CompileSched(tr.AT),
		atPos: winograd.CompileSched(pos),
		atNeg: winograd.CompileSched(neg),
	}
}

// Prediction is the destination-side result for one tile.
type Prediction struct {
	Est    *tensor.Mat // m×m estimated neuron values (from quantized data)
	MaxErr *tensor.Mat // m×m maximum possible positive error
	// Overflow reports that at least one source element exceeded the
	// quantizer range; the tile must then be treated as activated.
	Overflow bool
}

// NonActivated reports whether every neuron of the tile is provably
// non-activated (estimate + max error < 0) — the condition under which the
// tile's gathering communication is skipped entirely.
func (pr *Prediction) NonActivated() bool {
	if pr.Overflow {
		return false
	}
	for i, e := range pr.Est.Data {
		if e+pr.MaxErr.Data[i] >= 0 {
			return false
		}
	}
	return true
}

// NonActivatedRows reports, per output-tile row, whether all neurons in
// that row are provably non-activated. With 1-D prediction the unit of
// skipped communication is a tile line (Section V-B measures "non-activated
// lines").
func (pr *Prediction) NonActivatedRows() []bool {
	out := make([]bool, pr.Est.Rows)
	if pr.Overflow {
		return out
	}
	for r := 0; r < pr.Est.Rows; r++ {
		ok := true
		for c := 0; c < pr.Est.Cols; c++ {
			if pr.Est.At(r, c)+pr.MaxErr.At(r, c) >= 0 {
				ok = false
				break
			}
		}
		out[r] = ok
	}
	return out
}

// Predict2D performs 2-D prediction: the source holds scattered individual
// elements of the T×T Winograd-domain output tile y, quantizes each, and
// the destination propagates values and error bounds through both 1-D
// stages of the inverse transform.
//
// Stage 1 (rows → Z = Q·A): error bound of Z splits into positive and
// negative parts because A has mixed-sign coefficients. Stage 2 (cols →
// est = Aᵀ·Z): positive coefficients of Aᵀ multiply the positive stage-1
// bound, negative coefficients the negative bound, yielding the final
// maximum positive error (paper Fig. 11, right path).
func (p *Predictor) Predict2D(y *tensor.Mat) *Prediction { return p.predictTile(y, false) }

// Predict1D performs 1-D prediction: the source holds complete tile rows,
// computes the first 1-D inverse transform Z = y·A with *real* values, then
// quantizes Z. Only the second stage accumulates quantization error, which
// is why 1-D prediction is tighter than 2-D (Section V-B).
func (p *Predictor) Predict1D(y *tensor.Mat) *Prediction { return p.predictTile(y, true) }

// predictTile runs the executor on the single tile y (lane 0).
func (p *Predictor) predictTile(y *tensor.Mat, oneD bool) *Prediction {
	t, m := p.Tr.T, p.Tr.M
	if y.Rows != t || y.Cols != t {
		panic(fmt.Sprintf("quant: %dx%d tile for a T=%d predictor", y.Rows, y.Cols, t))
	}
	s := tilePool.Get().(*Scratch)
	defer tilePool.Put(s)
	s.size(t, m)
	for e, v := range y.Data {
		s.y[e*lanes] = v
	}
	p.run(s, 1, oneD)
	pr := &Prediction{Est: tensor.NewMat(m, m), MaxErr: tensor.NewMat(m, m), Overflow: s.ov[0]}
	for i := range pr.Est.Data {
		pr.Est.Data[i] = s.est[i*lanes]
		pr.MaxErr.Data[i] = s.maxe[i*lanes]
	}
	return pr
}

// tilePool recycles the one-tile wrappers' scratch, so a per-tile caller
// pays for the Prediction it gets back, not for a lane batch of buffers.
var tilePool = sync.Pool{New: func() any { return new(Scratch) }}

// DeadTiles predicts tiles lo … lo+len(dead)−1 of the Winograd-domain
// output yd and sets dead[j] to whether tile lo+j is provably
// non-activated: every line by 1-D prediction when oneD is set, every
// neuron by 2-D prediction otherwise. Every slot of dead is written. Tile
// i = row·C + channel has element e at yd.El[e].Data[i], so a lane batch
// of consecutive tiles loads with one copy per element. s is the calling
// goroutine's scratch; no call allocates once s is sized.
func (p *Predictor) DeadTiles(dead []bool, yd *winograd.Domain, lo int, oneD bool, s *Scratch) {
	m := p.Tr.M
	s.size(p.Tr.T, m)
	for j0 := 0; j0 < len(dead); j0 += lanes {
		n := min(lanes, len(dead)-j0)
		s.load(yd, lo+j0, n)
		p.run(s, n, oneD)
		for l := 0; l < n; l++ {
			dead[j0+l] = s.tileDead(m, l)
		}
	}
}

// lanes is the predictor's tile batch.
const lanes = winograd.Lanes

// Scratch holds one goroutine's lane buffers for the predictor executor.
// The zero value is ready; buffers are sized on first use (and again only
// for a predictor with a larger tile).
type Scratch struct {
	// Lane-minor tile buffers: entry (i, j) of lane l of an r×c matrix
	// sits at (i·c + j)·lanes + l.
	y          []float32 // T×T Winograd-domain tiles
	q, r       []float32 // quantized values and resolutions (T×T, or T×m for 1-D)
	z          []float32 // stage-1 product y·A (1-D) or qv·A (2-D), T×m
	pos1, neg1 []float32 // 2-D stage-1 error bounds res·pos(A), res·neg(A), T×m
	est, maxe  []float32 // m×m estimate and maximum positive error
	tmp        []float32 // m×m 2-D negative-side error term
	ov         [lanes]bool
}

func (s *Scratch) size(t, m int) {
	if len(s.y) >= t*t*lanes && len(s.est) >= m*m*lanes {
		return
	}
	tt, tm, mm := t*t*lanes, t*m*lanes, m*m*lanes
	s.y, s.q, s.r = make([]float32, tt), make([]float32, tt), make([]float32, tt)
	s.z, s.pos1, s.neg1 = make([]float32, tm), make([]float32, tm), make([]float32, tm)
	s.est, s.maxe, s.tmp = make([]float32, mm), make([]float32, mm), make([]float32, mm)
}

// load stages tiles i0 … i0+n−1 of yd as lanes 0 … n−1 of s.y. Lanes
// beyond n keep stale values; lanes never mix, so those are never read.
func (s *Scratch) load(yd *winograd.Domain, i0, n int) {
	for e, el := range yd.El {
		copy(s.y[e*lanes:e*lanes+n], el.Data[i0:i0+n])
	}
}

// tileDead reports whether lane l is provably non-activated: no overflow,
// and estimate + maximum error < 0 for all m×m neurons.
func (s *Scratch) tileDead(m, l int) bool {
	for r := 0; r < m; r++ {
		if !s.rowDead(m, l, r) {
			return false
		}
	}
	return true
}

// rowDead reports whether every neuron of output row r of lane l is
// provably non-activated (a dead line of 1-D prediction).
func (s *Scratch) rowDead(m, l, r int) bool {
	if s.ov[l] {
		return false
	}
	for c := 0; c < m; c++ {
		i := (r*m+c)*lanes + l
		if s.est[i]+s.maxe[i] >= 0 {
			return false
		}
	}
	return true
}

// run predicts lanes 0 … n−1 of s.y, leaving the lane-minor m×m
// estimate in s.est, the maximum positive error in s.maxe and each lane's
// overflow flag in s.ov. The float stages run on all lanes (their cost is
// per term, not per lane); only quantization skips the unused ones.
//
// Each lane sees the float operations of the reference MatMul passes
// (predictor_test.go) in the same order: every entry starts at +0 and
// adds c·v over the nonzero coefficients c in ascending k. The reference
// also adds the zero-coefficient terms and skips zero data; those addends
// are ±0, which cannot change a chain that starts at +0, so estimates and
// bounds are bit-identical for finite tiles (DESIGN.md §8).
func (p *Predictor) run(s *Scratch, n int, oneD bool) {
	t, m := p.Tr.T, p.Tr.M
	if oneD {
		rowTimes(s.z, p.at, s.y, t, m) // z = y·A, exact at the source
		p.quantize(s.q, s.r, s.z[:t*m*lanes], n, &s.ov)
		colTimes(s.est, p.at, s.q, m)     // est = Aᵀ·qz
		colTimes(s.maxe, p.atPos, s.r, m) // maxErr = pos(Aᵀ)·res
		return
	}
	p.quantize(s.q, s.r, s.y[:t*t*lanes], n, &s.ov)
	rowTimes(s.z, p.at, s.q, t, m)       // qv·A
	rowTimes(s.pos1, p.atPos, s.r, t, m) // positive stage-1 bound
	rowTimes(s.neg1, p.atNeg, s.r, t, m) // negative stage-1 bound (≤ 0)
	colTimes(s.est, p.at, s.z, m)        // est = Aᵀ·(qv·A)
	colTimes(s.maxe, p.atPos, s.pos1, m) // positive coeff × positive err
	colTimes(s.tmp, p.atNeg, s.neg1, m)  // negative coeff × negative err
	for i := range s.maxe[:m*m*lanes] {
		s.maxe[i] += s.tmp[i]
	}
}

// quantize quantizes lanes 0 … n−1 of the lane-minor values v into q
// and r, setting ov[l] when any value of lane l overflows.
func (p *Predictor) quantize(q, r, v []float32, n int, ov *[lanes]bool) {
	*ov = [lanes]bool{}
	for i0 := 0; i0 < len(v); i0 += lanes {
		for l := 0; l < n; l++ {
			var o bool
			q[i0+l], r[i0+l], o = p.Q.Quantize(v[i0+l])
			ov[l] = ov[l] || o
		}
	}
}

// rowTimes sets dst = x·R for the lane-minor t×t tiles x, where rt is
// the row schedule of the t×m matrix Rᵀ: dst is t×m.
func rowTimes(dst []float32, rt *winograd.Sched, x []float32, t, m int) {
	for i := 0; i < t; i++ {
		for j := 0; j < m; j++ {
			rt.DotLanes((*[lanes]float32)(dst[(i*m+j)*lanes:]), j, x[i*t*lanes:], lanes)
		}
	}
}

// colTimes sets dst = L·x for the lane-minor t×m matrices x, where l is
// the row schedule of the m×t matrix L: dst is m×m.
func colTimes(dst []float32, l *winograd.Sched, x []float32, m int) {
	for i := 0; i < m; i++ {
		for j := 0; j < m; j++ {
			l.DotLanes((*[lanes]float32)(dst[(i*m+j)*lanes:]), i, x[j*lanes:], m*lanes)
		}
	}
}

// TrueNonActivated reports whether the exact inverse transform of y has all
// neurons < 0 — the oracle the paper's dotted "real value" line measures
// (the upper limit of any prediction).
func TrueNonActivated(tr *winograd.Transform, y *tensor.Mat) bool {
	return allNegative(tr.OutputFromWinograd(y).Data)
}

// allNegative reports whether no neuron of vals is activated (v >= 0).
func allNegative(vals []float32) bool {
	for _, v := range vals {
		if v >= 0 {
			return false
		}
	}
	return true
}
