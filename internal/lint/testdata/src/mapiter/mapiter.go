// Package mapiter is the golden testdata for the mapiter analyzer: map
// iteration whose order leaks into results.
package mapiter

import "sort"

func appendUnderMapRange(m map[int]float64) []int {
	var keys []int
	for k := range m {
		keys = append(keys, k) // want `append inside map iteration`
	}
	return keys
}

// Collect-then-sort launders the order away and is accepted.
func appendThenSort(m map[int]float64) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}

func floatAccum(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v // want `float accumulation inside map iteration`
	}
	return sum
}

func floatAccumSpelledOut(m map[string]float32) float32 {
	var sum float32
	for _, v := range m {
		sum = sum + v // want `float accumulation inside map iteration`
	}
	return sum
}

// Integer accumulation is associative and commutative: not flagged.
func intAccum(m map[string]int) int {
	var n int
	for _, v := range m {
		n += v
	}
	return n
}

// Writes into a slot keyed by the map key are per-key: not flagged.
func perKeyWrite(m map[int]float64, out []float64) {
	for k, v := range m {
		out[k] += v
	}
}

// A slot keyed by the inner key alone still folds across the outer map's
// iterations, so its bits depend on the outer iteration order.
func nestedFoldAcrossOuter(outer map[string]map[int]float64, out []float64) {
	for _, in := range outer {
		for j, v := range in {
			out[j] += v // want `float accumulation inside map iteration`
		}
	}
}

// Keyed by both enclosing ranges: every slot is written once per key pair.
func nestedPerKey(outer map[int]map[int]float64, out [][]float64) {
	for i, in := range outer {
		for j, v := range in {
			out[i][j] += v
		}
	}
}

func channelSend(m map[int]int, ch chan int) {
	for k := range m {
		ch <- k // want `channel send inside map iteration`
	}
}

// Ranging over a slice is ordered: nothing in this body is flagged.
func sliceRange(xs []float64) float64 {
	var sum float64
	for _, v := range xs {
		sum += v
	}
	return sum
}

// A reasoned suppression is honored…
func suppressed(m map[string]float64) float64 {
	var sum float64
	for _, v := range m {
		sum += v //nolint:mapiter -- testdata: exercising the suppression path itself
	}
	return sum
}

// …but a bare directive is not: it reports, and does not suppress.
func reasonless(m map[string]float64) []string {
	var keys []string
	for k := range m {
		//nolint:mapiter // want `nolint directive is missing its mandatory reason`
		keys = append(keys, k) // want `append inside map iteration`
	}
	return keys
}
