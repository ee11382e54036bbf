package winograd

import (
	"fmt"

	"mptwino/internal/conv"
)

// Tiling decomposes a convolution layer's feature maps into the overlapping
// T×T input tiles / m×m output tiles of the tile-based Winograd algorithm
// (Section II-B). Input tiles advance with stride m and overlap by r−1;
// out-of-range taps are zero (the layer's padding).
type Tiling struct {
	Tr *Transform
	P  conv.Params

	TilesH, TilesW int // tile grid dimensions

	// ops holds the compiled schedules the lane loops run: Tr's own when
	// MakeTransform compiled them, otherwise compiled here, so every
	// Domain transform takes the lane executor.
	ops *fusedOps
}

// NewTiling validates the layer geometry against the transform and returns
// the tile decomposition.
func NewTiling(tr *Transform, p conv.Params) (*Tiling, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if p.K != tr.R {
		return nil, fmt.Errorf("winograd: kernel %dx%d does not match transform %s", p.K, p.K, tr)
	}
	m := tr.M
	return &Tiling{
		Tr:     tr,
		P:      p,
		TilesH: (p.OutH() + m - 1) / m,
		TilesW: (p.OutW() + m - 1) / m,
		ops:    schedules(tr),
	}, nil
}

// Tiles returns the number of tiles per feature map (the paper's t).
func (tl *Tiling) Tiles() int { return tl.TilesH * tl.TilesW }

// The lane loops move n ≤ Lanes channels of one tile at a time between
// NCHW data and a lane-minor tile buffer (element (r, c) of lane l at
// (r·side + c)·n + l). plane is the data from the first of the n channels
// onward, so lane l of position (h, w) is plane[l·H·W + h·W + w].

// gatherLanes copies the side×side patches at origin (oh, ow) of n h×w
// channel planes into dst, zero-filling positions outside the plane (the
// layer's padding, partial tiles at the bottom and right edges).
func gatherLanes(dst, plane []float32, n, side, oh, ow, h, w int) {
	hw := h * w
	for r := 0; r < side; r++ {
		ih := oh + r
		drow := dst[r*side*n : (r+1)*side*n]
		if ih < 0 || ih >= h {
			clear(drow)
			continue
		}
		for cc := 0; cc < side; cc++ {
			iw := ow + cc
			d := drow[cc*n : cc*n+n]
			if iw < 0 || iw >= w {
				clear(d)
				continue
			}
			for l := range d {
				d[l] = plane[ih*w+iw+l*hw]
			}
		}
	}
}

// scatterLanes stores (add = false) or accumulates (add = true) n
// lane-minor side×side tiles into the planes at origin (oh, ow), dropping
// positions outside the plane. Output tiles never overlap, so the inverse
// output transform stores; input-gradient tiles overlap by r−1 and sum,
// which is exactly the adjoint of gatherLanes.
func scatterLanes(plane, src []float32, n, side, oh, ow, h, w int, add bool) {
	hw := h * w
	for r := 0; r < side; r++ {
		ih := oh + r
		if ih < 0 || ih >= h {
			continue
		}
		for cc := 0; cc < side; cc++ {
			iw := ow + cc
			if iw < 0 || iw >= w {
				continue
			}
			p, s := ih*w+iw, src[(r*side+cc)*n:(r*side+cc+1)*n]
			if add {
				for l, v := range s {
					plane[p+l*hw] += v
				}
			} else {
				for l, v := range s {
					plane[p+l*hw] = v
				}
			}
		}
	}
}
