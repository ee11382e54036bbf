package tensor

// Arena is a replay-style scratch allocator for the per-step temporaries of
// the training hot paths. A step acquires buffers in a fixed order with
// Floats, and Reset rewinds the arena so the next step reuses the same
// storage: after the first step the sequence repeats and the arena performs
// zero allocations. A slot's backing storage is reused when it is large
// enough for the request and reallocated (grow-only) otherwise, so an arena
// also converges quickly when layers of different sizes share it.
//
// Returned buffers have unspecified contents; they remain valid until the
// Reset after next. An Arena is not safe for concurrent use — parallel code
// keeps one per worker.
type Arena struct {
	bufs  [][]float32
	nextB int
}

// Reset rewinds the arena; storage handed out before the call will be
// recycled by subsequent requests.
func (a *Arena) Reset() {
	a.nextB = 0
}

// Floats returns a length-n scratch slice with unspecified contents.
func (a *Arena) Floats(n int) []float32 {
	if a.nextB == len(a.bufs) {
		a.bufs = append(a.bufs, make([]float32, n))
	}
	b := a.bufs[a.nextB]
	if cap(b) < n {
		b = make([]float32, n)
		a.bufs[a.nextB] = b
	}
	a.nextB++
	return b[:n]
}
