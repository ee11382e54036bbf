package tensor

import "math"

// RNG is a small deterministic pseudo-random generator (SplitMix64) used to
// synthesize inputs, weights, and Winograd-domain value distributions
// reproducibly across runs. It intentionally avoids math/rand's global
// state so that parallel tests never interleave streams.
type RNG struct {
	state uint64
	// cached spare Gaussian sample for NormFloat64 (Box–Muller pair)
	haveSpare bool
	spare     float64
}

// NewRNG returns a generator seeded with seed.
func NewRNG(seed uint64) *RNG { return &RNG{state: seed} }

// Uint64 returns the next 64 pseudo-random bits.
func (r *RNG) Uint64() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Float64 returns a uniform sample in [0,1).
func (r *RNG) Float64() float64 {
	return float64(float64(r.Uint64()>>11) / (1 << 53))
}

// Intn returns a uniform sample in [0,n). It panics if n <= 0.
func (r *RNG) Intn(n int) int {
	if n <= 0 {
		panic("tensor: RNG.Intn with non-positive n")
	}
	return int(r.Uint64() % uint64(n))
}

// NormFloat64 returns a standard-normal sample via Box–Muller.
func (r *RNG) NormFloat64() float64 {
	if r.haveSpare {
		r.haveSpare = false
		return r.spare
	}
	var u, v, s float64
	for {
		u = float64(2*r.Float64()) - 1
		v = float64(2*r.Float64()) - 1
		s = float64(u*u) + float64(v*v)
		if s > 0 && s < 1 {
			break
		}
	}
	mul := math.Sqrt(-2 * math.Log(s) / s)
	r.spare = v * mul
	r.haveSpare = true
	return u * mul
}

// FillUniform fills t with uniform samples in [lo,hi).
func (r *RNG) FillUniform(t *Tensor, lo, hi float32) {
	span := float64(hi - lo)
	for i := range t.Data {
		t.Data[i] = lo + float32(r.Float64()*span)
	}
}

// FillNormal fills t with Gaussian samples N(mean, sigma²).
func (r *RNG) FillNormal(t *Tensor, mean, sigma float32) {
	for i := range t.Data {
		t.Data[i] = mean + float32(sigma*float32(r.NormFloat64()))
	}
}

// FillHe fills a weight tensor with He-normal initialization
// (sigma = sqrt(2 / fanIn)), the standard choice for ReLU networks.
func (r *RNG) FillHe(t *Tensor, fanIn int) {
	sigma := float32(math.Sqrt(2 / float64(fanIn)))
	r.FillNormal(t, 0, sigma)
}
