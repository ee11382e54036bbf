package tensor

import "fmt"

// Mat is a dense row-major float32 matrix. It is the working type for the
// Winograd transform matrices (G, B, A and their transposes) and for the
// per-element matrix multiplications of the Winograd domain.
type Mat struct {
	Rows, Cols int
	Data       []float32
}

// NewMat allocates a zero Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("tensor: invalid matrix shape %dx%d", rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: make([]float32, rows*cols)}
}

// MatFromSlice wraps data (row-major) without copying.
func MatFromSlice(rows, cols int, data []float32) *Mat {
	if len(data) != rows*cols {
		panic(fmt.Sprintf("tensor: matrix data length %d does not match %dx%d", len(data), rows, cols))
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r,c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set stores v at element (r,c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Zero clears all elements.
func (m *Mat) Zero() {
	for i := range m.Data {
		m.Data[i] = 0
	}
}

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	out := NewMat(m.Rows, m.Cols)
	copy(out.Data, m.Data)
	return out
}

// CloneInto copies m into dst, which must have the same shape.
func (m *Mat) CloneInto(dst *Mat) {
	if dst.Rows != m.Rows || dst.Cols != m.Cols {
		panic(fmt.Sprintf("tensor: CloneInto shape mismatch %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	copy(dst.Data, m.Data)
}

// T returns the transpose as a new matrix. Hot paths that would otherwise
// call this per step should prefer the transposed-operand GEMM variants
// (MatMulNTInto / MatMulTNInto) or TInto with reused storage.
func (m *Mat) T() *Mat {
	out := NewMat(m.Cols, m.Rows)
	m.TInto(out)
	return out
}

// TInto writes the transpose of m into dst (shape m.Cols × m.Rows).
func (m *Mat) TInto(dst *Mat) {
	if dst.Rows != m.Cols || dst.Cols != m.Rows {
		panic(fmt.Sprintf("tensor: TInto shape mismatch %dx%d into %dx%d", m.Rows, m.Cols, dst.Rows, dst.Cols))
	}
	for r := 0; r < m.Rows; r++ {
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, v := range row {
			dst.Data[c*dst.Cols+r] = v
		}
	}
}

// MatMul returns a×b. It panics on inner-dimension mismatch.
func MatMul(a, b *Mat) *Mat {
	if a.Cols != b.Rows {
		panic(fmt.Sprintf("tensor: matmul inner mismatch %dx%d · %dx%d", a.Rows, a.Cols, b.Rows, b.Cols))
	}
	out := NewMat(a.Rows, b.Cols)
	MatMulInto(out, a, b)
	return out
}

// MatMulInto computes dst = a×b, reusing dst's storage. dst must have shape
// a.Rows × b.Cols. Small operands use the reference (i,k,j) loop; larger
// ones dispatch to the cache-blocked packed kernel in gemm.go, which is
// bit-identical to the reference for all finite inputs (see the contract
// note there). Callers inside parallel loops should prefer
// MatMulIntoScratch with per-worker scratch to stay allocation-free.
//
//mptlint:noalloc
func MatMulInto(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul shape error dst %dx%d = %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	countGemm(dst.Rows, dst.Cols, a.Cols)
	g := activeGemm.Load()
	if smallGemm(g, dst.Rows, dst.Cols, a.Cols) {
		MatMulNaiveInto(dst, a, b)
		return
	}
	s := gemmPool.Get().(*GemmScratch)
	gemmBlocked(dst, a.Data, a.Cols, b.Data, b.Cols, dst.Rows, dst.Cols, a.Cols, false, false, s, g)
	gemmPool.Put(s)
}

// MatMulAccInto computes dst += a×b without zeroing dst first.
//
//mptlint:noalloc
func MatMulAccInto(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic(fmt.Sprintf("tensor: matmul-acc shape error dst %dx%d += %dx%d · %dx%d",
			dst.Rows, dst.Cols, a.Rows, a.Cols, b.Rows, b.Cols))
	}
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*a.Cols : (i+1)*a.Cols]
		drow := dst.Data[i*dst.Cols : (i+1)*dst.Cols]
		for k, av := range arow {
			if av == 0 {
				continue
			}
			brow := b.Data[k*b.Cols : (k+1)*b.Cols]
			for j, bv := range brow {
				drow[j] = addKeepNaN(drow[j], float32(av*bv))
			}
		}
	}
}

// Sandwich computes l × m × r, the shape of every 2-D Winograd transform
// step (e.g. G·w·Gᵀ, Bᵀ·x·B, Aᵀ·Y·A).
func Sandwich(l, m, r *Mat) *Mat {
	return MatMul(MatMul(l, m), r)
}

// MatInverse returns the inverse of a square matrix via Gauss–Jordan
// elimination with partial pivoting, in float64 internally. It errors on
// non-square or (numerically) singular input. Only used for tiny matrices
// (the m×m normal matrices of the Winograd output transform).
func MatInverse(m *Mat) (*Mat, error) {
	if m.Rows != m.Cols {
		return nil, fmt.Errorf("tensor: inverse of non-square %dx%d", m.Rows, m.Cols)
	}
	n := m.Rows
	// Augmented [A | I] in float64.
	a := make([][]float64, n)
	for i := 0; i < n; i++ {
		a[i] = make([]float64, 2*n)
		for j := 0; j < n; j++ {
			a[i][j] = float64(m.At(i, j))
		}
		a[i][n+i] = 1
	}
	for col := 0; col < n; col++ {
		// Partial pivot.
		piv := col
		for r := col + 1; r < n; r++ {
			if abs64(a[r][col]) > abs64(a[piv][col]) {
				piv = r
			}
		}
		if abs64(a[piv][col]) < 1e-12 {
			return nil, fmt.Errorf("tensor: singular matrix in MatInverse")
		}
		a[col], a[piv] = a[piv], a[col]
		inv := 1 / a[col][col]
		for j := 0; j < 2*n; j++ {
			a[col][j] *= inv
		}
		for r := 0; r < n; r++ {
			if r == col || a[r][col] == 0 {
				continue
			}
			f := a[r][col]
			for j := 0; j < 2*n; j++ {
				a[r][j] -= float64(f * a[col][j])
			}
		}
	}
	out := NewMat(n, n)
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			out.Set(i, j, float32(a[i][n+j]))
		}
	}
	return out, nil
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}
