// Package nolintstale is the golden testdata for the suppression layer
// itself (run with the mapiter and notime analyzers): reasons are mandatory,
// suppression is scoped to line+analyzer, and a directive that suppresses
// nothing its named (and ran) analyzer could have produced is stale.
package nolintstale

// A live suppression: the directive covers a real mapiter finding.
func liveSuppression(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) //nolint:mapiter -- testdata: order is laundered by the caller's sort
	}
	return out
}

// A stale suppression: nothing on this line triggers mapiter.
func staleSuppression(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v //nolint:mapiter -- testdata: slices iterate in order // want `stale suppression: nolint:mapiter matches no mapiter finding on this line`
	}
	return s
}

// A directive naming an analyzer that did NOT run is not checkable; the
// suite does not run allocflow, so this directive is left alone.
func uncheckableSuppression(xs []int) int {
	s := 0
	for _, v := range xs {
		s += v //nolint:allocflow -- testdata: not checkable in a run without allocflow
	}
	return s
}

// A directive without the mandatory reason is itself reported, and does
// not suppress.
func missingReason(m map[string]int) []int {
	var out []int
	for _, v := range m {
		//nolint:mapiter // want `nolint directive is missing its mandatory reason`
		out = append(out, v) // want `append inside map iteration`
	}
	return out
}

// Multi-name directives are tracked per name: mapiter hits, but the
// notime half is stale — reported only when notime also runs, which this
// suite does, so both behaviors pin here.
func perNameTracking(m map[string]int) []int {
	var out []int
	for _, v := range m {
		out = append(out, v) //nolint:mapiter,notime -- testdata: int append, no clock read // want `stale suppression: nolint:notime matches no notime finding on this line`
	}
	return out
}
