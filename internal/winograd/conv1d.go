package winograd

import (
	"fmt"

	"mptwino/internal/tensor"
)

// Params1D describes a 1-D convolution layer over sequences of length L —
// the paper's 3×1-weight case ("for the 3×1 weights, F(2,3) can be used
// with a tile size of 4×1"). Tensors use the (B, C, 1, L) layout.
type Params1D struct {
	In, Out int
	K       int // kernel length (r)
	Pad     int
	L       int // input length
}

// OutL returns the output length.
func (p Params1D) OutL() int { return p.L + 2*p.Pad - p.K + 1 }

// Validate checks the geometry.
func (p Params1D) Validate() error {
	switch {
	case p.In <= 0 || p.Out <= 0:
		return fmt.Errorf("winograd: 1-D channels must be positive, got I=%d J=%d", p.In, p.Out)
	case p.K <= 0 || p.Pad < 0:
		return fmt.Errorf("winograd: bad 1-D kernel %d / pad %d", p.K, p.Pad)
	case p.OutL() <= 0:
		return fmt.Errorf("winograd: empty 1-D output for L=%d k=%d pad=%d", p.L, p.K, p.Pad)
	}
	return nil
}

// tiling1D mirrors Tiling for sequences: overlapping length-T input
// segments with output stride m.
type tiling1D struct {
	tr    *Transform
	p     Params1D
	tiles int
}

func newTiling1D(tr *Transform, p Params1D) (*tiling1D, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K != tr.R {
		return nil, fmt.Errorf("winograd: 1-D kernel %d does not match %s", p.K, tr)
	}
	return &tiling1D{tr: tr, p: p, tiles: (p.OutL() + tr.M - 1) / tr.M}, nil
}

// domain1D holds per-element matrices of shape (B·tiles)×C, the 1-D
// analogue of Domain with T elements instead of T².
type domain1D struct {
	tl   *tiling1D
	b, c int
	el   []*tensor.Mat
}

func newDomain1D(tl *tiling1D, b, c int) *domain1D {
	d := &domain1D{tl: tl, b: b, c: c, el: make([]*tensor.Mat, tl.tr.T)}
	for e := range d.el {
		d.el[e] = tensor.NewMat(b*tl.tiles, c)
	}
	return d
}

// transformInput lifts x (B,C,1,L) into the 1-D Winograd domain.
func (tl *tiling1D) transformInput(x *tensor.Tensor) *domain1D {
	if x.C != tl.p.In || x.H != 1 || x.W != tl.p.L {
		panic(fmt.Sprintf("winograd: 1-D input shape %s does not match I=%d L=%d",
			x.ShapeString(), tl.p.In, tl.p.L))
	}
	d := newDomain1D(tl, x.N, x.C)
	t := tl.tr.T
	seg := make([]float32, t)
	lifted := make([]float32, t)
	for b := 0; b < x.N; b++ {
		for c := 0; c < x.C; c++ {
			for ti := 0; ti < tl.tiles; ti++ {
				lo := ti*tl.tr.M - tl.p.Pad
				for i := 0; i < t; i++ {
					pos := lo + i
					if pos >= 0 && pos < tl.p.L {
						seg[i] = x.At(b, c, 0, pos)
					} else {
						seg[i] = 0
					}
				}
				tl.tr.Transform1DInputInto(lifted, seg)
				row := b*tl.tiles + ti
				for e, v := range lifted {
					d.el[e].Set(row, c, v)
				}
			}
		}
	}
	return d
}

// weights1D holds per-element In×Out matrices: W = G·w per filter tap.
type weights1D struct {
	tr      *Transform
	in, out int
	el      []*tensor.Mat
}

func transformWeights1D(tr *Transform, w *tensor.Tensor) *weights1D {
	if w.H != 1 || w.W != tr.R {
		panic(fmt.Sprintf("winograd: 1-D weight shape %s does not match %s", w.ShapeString(), tr))
	}
	ww := &weights1D{tr: tr, in: w.C, out: w.N, el: make([]*tensor.Mat, tr.T)}
	for e := range ww.el {
		ww.el[e] = tensor.NewMat(w.C, w.N)
	}
	filt := make([]float32, tr.R)
	lifted := make([]float32, tr.T)
	for j := 0; j < w.N; j++ {
		for i := 0; i < w.C; i++ {
			for k := 0; k < tr.R; k++ {
				filt[k] = w.At(j, i, 0, k)
			}
			matVecInto(lifted, tr.G, filt)
			for e, v := range lifted {
				ww.el[e].Set(i, j, v)
			}
		}
	}
	return ww
}

// Fprop1D computes the 1-D convolution y = x ⋆ w through the Winograd
// domain: per-element dot products followed by the 1-D inverse transform.
func Fprop1D(tr *Transform, p Params1D, x, w *tensor.Tensor) *tensor.Tensor {
	tl, err := newTiling1D(tr, p)
	if err != nil {
		panic(err)
	}
	xd := tl.transformInput(x)
	wd := transformWeights1D(tr, w)
	y := tensor.New(x.N, p.Out, 1, p.OutL())
	yEl := make([]*tensor.Mat, tr.T)
	for e := range yEl {
		yEl[e] = tensor.MatMul(xd.el[e], wd.el[e])
	}
	tile := make([]float32, tr.T)
	out := make([]float32, tr.M)
	for b := 0; b < x.N; b++ {
		for j := 0; j < p.Out; j++ {
			for ti := 0; ti < tl.tiles; ti++ {
				row := b*tl.tiles + ti
				for e := range tile {
					tile[e] = yEl[e].At(row, j)
				}
				tr.Inverse1DOutputInto(out, tile)
				for m, v := range out {
					pos := ti*tr.M + m
					if pos < p.OutL() {
						y.Set(b, j, 0, pos, v)
					}
				}
			}
		}
	}
	return y
}

// DirectFprop1D is the reference 1-D correlation used to validate the
// Winograd path (and as the d_dp baseline for 1-D layers).
func DirectFprop1D(p Params1D, x, w *tensor.Tensor) *tensor.Tensor {
	if err := p.Validate(); err != nil {
		panic(err)
	}
	y := tensor.New(x.N, p.Out, 1, p.OutL())
	for b := 0; b < x.N; b++ {
		for j := 0; j < p.Out; j++ {
			for i := 0; i < p.In; i++ {
				for o := 0; o < p.OutL(); o++ {
					var acc float32
					for k := 0; k < p.K; k++ {
						pos := o + k - p.Pad
						if pos >= 0 && pos < p.L {
							acc += float32(x.At(b, i, 0, pos) * w.At(j, i, 0, k))
						}
					}
					y.Add(b, j, 0, o, acc)
				}
			}
		}
	}
	return y
}
