// Command mptlint runs the repo's invariant analyzers (internal/lint)
// over a set of package patterns and exits non-zero on any finding. It is
// fully offline — types come from `go list -export` build-cache export
// data, not from downloaded tools — so `make lint` and `make verify` work
// on an air-gapped machine.
//
// Usage:
//
//	go run ./cmd/mptlint ./...            # whole repo, all analyzers
//	go run ./cmd/mptlint -run allocflow ./internal/winograd
//	go run ./cmd/mptlint -format=sarif ./... > mptlint.sarif
//	go run ./cmd/mptlint -list            # describe the suite
//
// Findings print as file:line:col: message (analyzer) by default;
// -format=json emits a machine-readable array and -format=sarif emits
// SARIF 2.1.0 for code-scanning upload / PR annotation. Suppress a false
// positive with a reasoned directive on (or directly above) the line:
//
//	//nolint:mapiter -- keys are sorted on the next line
//
// The reason after " -- " is mandatory; a bare //nolint is itself an
// error, and a directive that suppresses nothing is reported as stale.
//
// Known findings that are accepted for now live in the committed baseline
// (lint/baseline.json by default): entries match on (analyzer, file,
// exact message) — line-independent, so unrelated edits don't churn it —
// and every entry carries a mandatory "why" justification. A baseline
// entry that no longer matches any finding fails the run until the
// baseline is regenerated with -update-baseline (which preserves the
// "why" of surviving entries). See DESIGN.md §9/§14.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"mptwino/internal/lint"
)

func main() {
	os.Exit(run())
}

func run() int {
	var (
		runNames       = flag.String("run", "", "comma-separated analyzer names to run (default: all)")
		list           = flag.Bool("list", false, "list the analyzers and exit")
		format         = flag.String("format", "text", "output format: text, json, or sarif")
		baselinePath   = flag.String("baseline", "lint/baseline.json", "baseline file of accepted findings (missing file = empty; \"\" disables)")
		updateBaseline = flag.Bool("update-baseline", false, "rewrite the baseline from the current findings (preserving existing justifications) and exit")
		cachePath      = flag.String("cache", "", "cache file for go list -export call-graph data (\"\" disables)")
	)
	flag.Parse()

	if *list {
		for _, a := range lint.All() {
			fmt.Printf("%-12s %s\n", a.Name, a.Doc)
		}
		return 0
	}

	var names []string
	if *runNames != "" {
		names = strings.Split(*runNames, ",")
	}
	analyzers, err := lint.ByName(names)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mptlint: -run %q: %v (try -list)\n", *runNames, err)
		return 2
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}

	wd, err := os.Getwd()
	if err != nil {
		fmt.Fprintln(os.Stderr, "mptlint:", err)
		return 2
	}
	prog, err := lint.LoadCached(wd, *cachePath, patterns...)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}

	diags := lint.Analyze(prog, analyzers)

	// //nolint directives are read from (and stale-checked in) the target
	// packages only: module-local dependencies of a partial pattern keep
	// their directives for the run that targets them. Stale detection for
	// wildcard directives needs the full suite (ran == nil).
	files := prog.TargetFiles()
	ran := names
	if *runNames == "" {
		ran = nil
	}
	diags = lint.ApplyNolint(prog.Fset, files, diags, ran)

	if *updateBaseline {
		if *baselinePath == "" {
			fmt.Fprintln(os.Stderr, "mptlint: -update-baseline needs -baseline")
			return 2
		}
		n, missing, err := writeBaseline(*baselinePath, wd, diags)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mptlint:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "mptlint: baseline %s rewritten with %d entr%s\n", *baselinePath, n, plural(n, "y", "ies"))
		if missing > 0 {
			fmt.Fprintf(os.Stderr, "mptlint: %d new entr%s ha%s an empty \"why\" — fill in the justification before committing\n", missing, plural(missing, "y", "ies"), plural(missing, "s", "ve"))
		}
		return 0
	}

	var stale []baselineEntry
	if *baselinePath != "" {
		bl, err := loadBaseline(*baselinePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mptlint:", err)
			return 2
		}
		diags, stale, err = applyBaseline(wd, diags, bl)
		if err != nil {
			fmt.Fprintln(os.Stderr, "mptlint:", err)
			return 2
		}
	}

	switch *format {
	case "text":
		for _, d := range diags {
			fmt.Println(d)
		}
	case "json":
		if err := printJSON(os.Stdout, wd, diags); err != nil {
			fmt.Fprintln(os.Stderr, "mptlint:", err)
			return 2
		}
	case "sarif":
		if err := printSARIF(os.Stdout, wd, analyzers, diags); err != nil {
			fmt.Fprintln(os.Stderr, "mptlint:", err)
			return 2
		}
	default:
		fmt.Fprintf(os.Stderr, "mptlint: unknown -format %q (text, json, sarif)\n", *format)
		return 2
	}

	for _, e := range stale {
		fmt.Fprintf(os.Stderr, "mptlint: stale baseline entry: no %s finding in %s matches %q — regenerate with -update-baseline\n", e.Analyzer, e.File, e.Message)
	}
	if len(diags) > 0 || len(stale) > 0 {
		fmt.Fprintf(os.Stderr, "mptlint: %d finding(s), %d stale baseline entr%s\n", len(diags), len(stale), plural(len(stale), "y", "ies"))
		return 1
	}
	return 0
}

func plural(n int, one, many string) string {
	if n == 1 {
		return one
	}
	return many
}
