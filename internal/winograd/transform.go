package winograd

import "mptwino/internal/tensor"

// FilterToWinograd computes W = G·w·Gᵀ for one r×r filter, returning the
// T×T Winograd-domain weight tile.
func (tr *Transform) FilterToWinograd(w *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.G, w, tr.GT)
}

// InputToWinograd computes X = Bᵀ·x·B for one T×T input tile.
func (tr *Transform) InputToWinograd(x *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.BT, x, tr.B)
}

// OutputFromWinograd computes y = Aᵀ·Y·A, the inverse transform of a T×T
// Winograd-domain output tile to the m×m spatial output tile.
func (tr *Transform) OutputFromWinograd(y *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.AT, y, tr.A)
}

// OutputToWinograd computes dY = A·dy·Aᵀ, the adjoint of
// OutputFromWinograd; it carries spatial output gradients into the Winograd
// domain during bprop/updateGrad.
func (tr *Transform) OutputToWinograd(dy *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.A, dy, tr.AT)
}

// InputFromWinograd computes dx = B·dX·Bᵀ, the adjoint of InputToWinograd;
// it carries Winograd-domain input gradients back to the spatial domain.
func (tr *Transform) InputFromWinograd(dx *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.B, dx, tr.BT)
}

// FilterFromWinograd computes dw = Gᵀ·dW·G, the adjoint of
// FilterToWinograd; it maps Winograd-domain weight gradients back to
// spatial weight gradients (used by the non-Winograd-layer training mode
// that keeps spatial weights, Fig. 2(a)).
func (tr *Transform) FilterFromWinograd(dw *tensor.Mat) *tensor.Mat {
	return tensor.Sandwich(tr.GT, dw, tr.G)
}

// Transform1DInput applies the first 1-D stage of the input transform to a
// T-vector: Bᵀ·v. The paper's 4-group configuration performs this stage at
// the source worker before tile transfer (Section IV, "1D Winograd
// transform before transferring tile data").
func (tr *Transform) Transform1DInput(v []float32) []float32 {
	return matVec(tr.BT, v)
}

// Inverse1DOutput applies one 1-D stage of the output inverse transform to
// a T-vector: Aᵀ·v, producing m values. Used by 1-D prediction.
func (tr *Transform) Inverse1DOutput(v []float32) []float32 {
	return matVec(tr.AT, v)
}

// Transform1DInputInto is Transform1DInput into a caller-owned slice of
// length T (the hoisted form used by the 1-D hot loops).
func (tr *Transform) Transform1DInputInto(dst, v []float32) {
	matVecInto(dst, tr.BT, v)
}

// Inverse1DOutputInto is Inverse1DOutput into a caller-owned slice of
// length m.
func (tr *Transform) Inverse1DOutputInto(dst, v []float32) {
	matVecInto(dst, tr.AT, v)
}

func matVec(m *tensor.Mat, v []float32) []float32 {
	out := make([]float32, m.Rows)
	matVecInto(out, m, v)
	return out
}

func matVecInto(dst []float32, m *tensor.Mat, v []float32) {
	if len(v) != m.Cols || len(dst) != m.Rows {
		panic("winograd: matVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		var acc float32
		row := m.Data[r*m.Cols : (r+1)*m.Cols]
		for c, mv := range row {
			acc += float32(mv * v[c])
		}
		dst[r] = acc
	}
}

// LiftOutputBias returns the T×T Winograd-domain tile L whose inverse
// output transform is a constant: Aᵀ·L·A = bias·𝟙(m×m). Adding L to every
// output tile therefore shifts every spatial neuron by exactly bias —
// used to emulate the negative pre-activation bias of trained ReLU
// networks when synthesizing activation-prediction workloads.
func (tr *Transform) LiftOutputBias(bias float32) *tensor.Mat {
	ata := tensor.MatMul(tr.AT, tr.A) // m×m, symmetric positive definite
	inv, err := tensor.MatInverse(ata)
	if err != nil {
		panic(err)
	}
	b := tensor.NewMat(tr.M, tr.M)
	for i := range b.Data {
		b.Data[i] = bias
	}
	x := tensor.Sandwich(inv, b, inv)
	return tensor.Sandwich(tr.A, x, tr.AT)
}

// PNSplit returns the positive and negative parts of a matrix
// (pos[i] = max(m[i],0), neg[i] = min(m[i],0)). Activation prediction
// (Section V-A) propagates the maximum possible quantization error through
// the inverse transform by multiplying the positive (negative) error bound
// with the positive (negative) coefficients separately.
func PNSplit(m *tensor.Mat) (pos, neg *tensor.Mat) {
	pos = tensor.NewMat(m.Rows, m.Cols)
	neg = tensor.NewMat(m.Rows, m.Cols)
	for i, v := range m.Data {
		if v > 0 {
			pos.Data[i] = v
		} else {
			neg.Data[i] = v
		}
	}
	return pos, neg
}
