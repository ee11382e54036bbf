package lint

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
)

// All returns the full mptlint suite in reporting order. Each analyzer
// encodes one of the repo's structural invariants; DESIGN.md §9 documents
// the mapping and the suppression policy.
func All() []*Analyzer {
	return []*Analyzer{
		MapIter,
		NoGoroutine,
		NoTime,
		SharedWrite,
		DetSelect,
		AllocFlow,
	}
}

// ByName resolves a comma-separated analyzer selection ("" = all). It
// errors, listing every name that matches no analyzer, rather than run a
// silently narrower suite.
func ByName(names []string) ([]*Analyzer, error) {
	if len(names) == 0 {
		return All(), nil
	}
	var out []*Analyzer
	for _, a := range All() {
		if slices.Contains(names, a.Name) {
			out = append(out, a)
		}
	}
	var unknown []string
	for _, n := range names {
		if !slices.ContainsFunc(out, func(a *Analyzer) bool { return a.Name == n }) {
			unknown = append(unknown, strconv.Quote(n))
		}
	}
	if len(unknown) > 0 {
		return nil, fmt.Errorf("lint: unknown analyzer name(s) %s", strings.Join(unknown, ", "))
	}
	return out, nil
}
