// Package tensor provides the minimal dense numeric substrate used by the
// convolution, Winograd, and neural-network packages: a float32 4-D tensor
// in NCHW layout, a 2-D matrix view, matrix multiplication, im2col, and a
// deterministic random source.
//
// Everything is float32 because the paper's compute units (systolic array,
// vector processor) operate on FP32 (with an FP16-multiply variant modeled
// separately in the timing layer, not here).
package tensor

import (
	"fmt"
	"math"
)

// Tensor is a dense 4-D float32 tensor in NCHW order (batch, channel,
// height, width). Lower-rank data uses size-1 trailing dimensions.
// The zero value is an empty tensor; use New to allocate.
type Tensor struct {
	N, C, H, W int
	Data       []float32
}

// New allocates a zero-filled tensor of the given shape.
// It panics if any dimension is non-positive, since a tensor with a zero
// or negative dimension is always a caller bug in this codebase.
func New(n, c, h, w int) *Tensor {
	if n <= 0 || c <= 0 || h <= 0 || w <= 0 {
		panic(fmt.Sprintf("tensor: invalid shape %dx%dx%dx%d", n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: make([]float32, n*c*h*w)}
}

// FromSlice wraps data in a tensor of the given shape without copying.
// len(data) must equal n*c*h*w.
func FromSlice(n, c, h, w int, data []float32) *Tensor {
	if len(data) != n*c*h*w {
		panic(fmt.Sprintf("tensor: data length %d does not match shape %dx%dx%dx%d",
			len(data), n, c, h, w))
	}
	return &Tensor{N: n, C: c, H: h, W: w, Data: data}
}

// Len returns the number of elements.
func (t *Tensor) Len() int { return t.N * t.C * t.H * t.W }

// Bytes returns the storage size in bytes (4 bytes per element).
func (t *Tensor) Bytes() int { return 4 * t.Len() }

// Index returns the flat offset of element (n,c,h,w).
func (t *Tensor) Index(n, c, h, w int) int {
	return ((n*t.C+c)*t.H+h)*t.W + w
}

// At returns element (n,c,h,w).
func (t *Tensor) At(n, c, h, w int) float32 { return t.Data[t.Index(n, c, h, w)] }

// Set stores v at element (n,c,h,w).
func (t *Tensor) Set(n, c, h, w int, v float32) { t.Data[t.Index(n, c, h, w)] = v }

// Add accumulates v into element (n,c,h,w).
func (t *Tensor) Add(n, c, h, w int, v float32) { t.Data[t.Index(n, c, h, w)] += v }

// Clone returns a deep copy.
func (t *Tensor) Clone() *Tensor {
	out := New(t.N, t.C, t.H, t.W)
	copy(out.Data, t.Data)
	return out
}

// Zero clears all elements in place.
func (t *Tensor) Zero() {
	for i := range t.Data {
		t.Data[i] = 0
	}
}

// SameShape reports whether t and o have identical dimensions.
func (t *Tensor) SameShape(o *Tensor) bool {
	return t.N == o.N && t.C == o.C && t.H == o.H && t.W == o.W
}

// ShapeString returns "NxCxHxW" for error messages.
func (t *Tensor) ShapeString() string {
	return fmt.Sprintf("%dx%dx%dx%d", t.N, t.C, t.H, t.W)
}

// AXPY computes t += alpha*o elementwise. Shapes must match.
func (t *Tensor) AXPY(alpha float32, o *Tensor) {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: AXPY shape mismatch %s vs %s", t.ShapeString(), o.ShapeString()))
	}
	for i, v := range o.Data {
		t.Data[i] += float32(alpha * v)
	}
}

// Scale multiplies every element by alpha in place.
func (t *Tensor) Scale(alpha float32) {
	for i := range t.Data {
		t.Data[i] *= alpha
	}
}

// MaxAbsDiff returns the largest absolute elementwise difference between t
// and o. Shapes must match.
func (t *Tensor) MaxAbsDiff(o *Tensor) float64 {
	if !t.SameShape(o) {
		panic(fmt.Sprintf("tensor: MaxAbsDiff shape mismatch %s vs %s", t.ShapeString(), o.ShapeString()))
	}
	var m float64
	for i := range t.Data {
		d := math.Abs(float64(t.Data[i] - o.Data[i]))
		if d > m {
			m = d
		}
	}
	return m
}

// L2Norm returns the Euclidean norm of all elements.
func (t *Tensor) L2Norm() float64 {
	var s float64
	for _, v := range t.Data {
		s += float64(float64(v) * float64(v))
	}
	return math.Sqrt(s)
}
