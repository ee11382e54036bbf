// Command benchdiff runs the repository's benchmark suite, captures ns/op,
// allocations, and every custom b.ReportMetric value (the paper's headline
// numbers) into a JSON snapshot, and diffs that snapshot against a committed
// baseline for CI gating.
//
// Two classes of measurement get two policies (see EXPERIMENTS.md §tolerance):
//
//   - Model metrics (dp_MB, wmpfull_speedup_x, ...) are outputs of a
//     deterministic simulator: they must match the baseline to within a tiny
//     formatting tolerance (-mtol, default 1e-3 relative) on any machine.
//     A drift here means the model changed, and the gate fails.
//   - Wall-clock numbers (ns/op, B/op) are machine-dependent: they are
//     recorded for trend tracking and printed in the diff, but only gate
//     when -gate-times is set (CI does this on the fixed runner class,
//     with the generous -tol, default 4x, to ride out runner noise).
//   - Zero-alloc contracts are machine-independent: any benchmark whose
//     baseline records 0 allocs/op must still report 0, on any machine
//     (-gate-allocs, on by default). The steady-state layer benchmarks
//     rely on this to keep the hot paths allocation-free.
//
// Usage:
//
//	go run ./cmd/benchdiff -update            # (re)record bench/BENCH_baseline.json
//	go run ./cmd/benchdiff                    # run, write BENCH_<date>.json, diff vs baseline
//	go run ./cmd/benchdiff -gate-times        # also fail on wall-time regressions
//	go run ./cmd/benchdiff -serial            # extra workers=1 pass; record parallel speedup
package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"mptwino/internal/tensor"
)

// Bench is one benchmark's captured measurements.
type Bench struct {
	NsPerOp     float64            `json:"ns_per_op"`
	BytesPerOp  float64            `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64            `json:"allocs_per_op,omitempty"`
	Metrics     map[string]float64 `json:"metrics,omitempty"`
	// SpeedupVsSerial is parallel ns/op over the MPTWINO_WORKERS=1 pass for
	// the same benchmark; only present under -serial.
	SpeedupVsSerial float64 `json:"speedup_vs_serial,omitempty"`
}

// Snapshot is one benchdiff run: environment plus all benchmarks.
type Snapshot struct {
	Date       string           `json:"date"`
	GoVersion  string           `json:"go_version"`
	GOOS       string           `json:"goos"`
	GOARCH     string           `json:"goarch"`
	GOMAXPROCS int              `json:"gomaxprocs"`
	GemmKernel string           `json:"gemm_kernel,omitempty"`
	CPUFeature string           `json:"cpu_features,omitempty"`
	BenchTime  string           `json:"benchtime"`
	Benchmarks map[string]Bench `json:"benchmarks"`
}

func main() {
	var (
		benchRe    = flag.String("bench", ".", "benchmark regex passed to go test -bench")
		benchTime  = flag.String("benchtime", "1x", "go test -benchtime value")
		baseline   = flag.String("baseline", "bench/BENCH_baseline.json", "baseline snapshot to diff against")
		outDir     = flag.String("outdir", "bench", "directory for the dated snapshot")
		update     = flag.Bool("update", false, "rewrite the baseline from this run instead of diffing")
		mtol       = flag.Float64("mtol", 1e-3, "relative tolerance for model metrics (machine-independent)")
		tol        = flag.Float64("tol", 4.0, "allowed wall-time ratio vs baseline when -gate-times is set")
		gateTimes  = flag.Bool("gate-times", false, "fail on ns/op or allocs/op regressions beyond -tol")
		gateAllocs = flag.Bool("gate-allocs", true, "fail when a zero-allocs/op baseline benchmark allocates")
		serial     = flag.Bool("serial", false, "run a second pass with MPTWINO_WORKERS=1 and record parallel speedup")
	)
	flag.Parse()

	snap, err := capture(*benchRe, *benchTime, nil)
	if err != nil {
		fatal(err)
	}
	if *serial {
		seq, err := capture(*benchRe, *benchTime, []string{"MPTWINO_WORKERS=1"})
		if err != nil {
			fatal(err)
		}
		for name, b := range snap.Benchmarks {
			if s, ok := seq.Benchmarks[name]; ok && b.NsPerOp > 0 {
				b.SpeedupVsSerial = s.NsPerOp / b.NsPerOp
				snap.Benchmarks[name] = b
			}
		}
	}

	if *update {
		if err := writeJSON(*baseline, snap); err != nil {
			fatal(err)
		}
		fmt.Printf("benchdiff: baseline %s updated (%d benchmarks)\n", *baseline, len(snap.Benchmarks))
		return
	}

	out := filepath.Join(*outDir, "BENCH_"+time.Now().UTC().Format("2006-01-02")+".json")
	if err := writeJSON(out, snap); err != nil {
		fatal(err)
	}
	fmt.Printf("benchdiff: snapshot written to %s (%d benchmarks)\n", out, len(snap.Benchmarks))

	base, err := readJSON(*baseline)
	if err != nil {
		if os.IsNotExist(err) {
			fmt.Printf("benchdiff: no baseline at %s; run with -update to record one\n", *baseline)
			return
		}
		fatal(err)
	}
	// Every GEMM dispatch tier is bit-identical, so model metrics do not
	// depend on the tier; wall-time baselines recorded on one tier still
	// gate meaninglessly against another. Refuse rather than report bogus
	// drift.
	if base.GemmKernel != "" && base.GemmKernel != snap.GemmKernel {
		fmt.Printf("benchdiff: FAIL — baseline recorded on gemm tier %q (cpu %s) but this run dispatched %q (cpu %s)\n",
			base.GemmKernel, base.CPUFeature, snap.GemmKernel, snap.CPUFeature)
		fmt.Printf("  hint: force the baseline tier with %s=%s, or re-record with `go run ./cmd/benchdiff -update`\n",
			tensor.EnvGemmKernel, base.GemmKernel)
		os.Exit(1)
	}
	reportTelemetryOverhead(snap)
	failures, missing := diff(base, snap, *benchRe, *mtol, *tol, *gateTimes, *gateAllocs)
	if missing > 0 {
		fmt.Printf("benchdiff: FAIL — %d baseline benchmark(s) absent from this run: deleted or renamed? re-record the baseline with `go run ./cmd/benchdiff -update`\n", missing)
	}
	if failures > 0 {
		fmt.Printf("benchdiff: FAIL — %d regression(s) vs %s\n", failures, *baseline)
	}
	if failures+missing > 0 {
		os.Exit(1)
	}
	fmt.Printf("benchdiff: OK — model metrics within %.3g and zero-alloc contracts hold vs %s\n", *mtol, *baseline)
}

// reportTelemetryOverhead prints the wall-time ratio of every
// <Name>Telemetry benchmark against its detached <Name> twin. The report
// is informational only — wall time is machine noise at 1x benchtime; the
// enforced telemetry contract is the twins' zero-alloc gate and their
// deterministic model metrics.
func reportTelemetryOverhead(snap *Snapshot) {
	names := make([]string, 0, len(snap.Benchmarks))
	for n := range snap.Benchmarks {
		if strings.HasSuffix(n, "Telemetry") {
			names = append(names, n)
		}
	}
	sort.Strings(names)
	for _, n := range names {
		twin := strings.TrimSuffix(n, "Telemetry")
		b, ok := snap.Benchmarks[twin]
		if !ok || b.NsPerOp <= 0 {
			continue
		}
		t := snap.Benchmarks[n]
		fmt.Printf("  telemetry overhead %-28s %.3gms -> %.3gms (%.2fx)\n",
			twin, b.NsPerOp/1e6, t.NsPerOp/1e6, t.NsPerOp/b.NsPerOp)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// capture runs the bench suite once and parses every benchmark line.
func capture(benchRe, benchTime string, extraEnv []string) (*Snapshot, error) {
	args := []string{"test", "-run", "^$", "-bench", benchRe, "-benchmem", "-benchtime", benchTime, "."}
	cmd := exec.Command("go", args...)
	cmd.Env = append(os.Environ(), extraEnv...)
	var buf bytes.Buffer
	cmd.Stdout = &buf
	cmd.Stderr = os.Stderr
	fmt.Printf("benchdiff: go %s  %s\n", strings.Join(args, " "), strings.Join(extraEnv, " "))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("bench run failed: %w\n%s", err, buf.String())
	}
	snap := &Snapshot{
		Date:       time.Now().UTC().Format(time.RFC3339),
		GoVersion:  runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		// This process and the `go test` child share the environment, so
		// the tier the tensor package dispatched to here is the tier the
		// benchmarks ran on (DESIGN.md §13).
		GemmKernel: tensor.GemmKernel(),
		CPUFeature: tensor.CPUFeatures(),
		BenchTime:  benchTime,
		Benchmarks: map[string]Bench{},
	}
	sc := bufio.NewScanner(&buf)
	sc.Buffer(make([]byte, 1024*1024), 1024*1024)
	for sc.Scan() {
		name, b, ok := parseBenchLine(sc.Text())
		if ok {
			snap.Benchmarks[name] = b
		}
	}
	if len(snap.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark lines matched -bench %q", benchRe)
	}
	return snap, sc.Err()
}

// parseBenchLine parses one `go test -bench` output line:
//
//	BenchmarkFig07CommScaling-8   1   123456 ns/op   5.2 dp_MB   0 B/op   3 allocs/op
//
// returning the trimmed name and its value/unit pairs.
func parseBenchLine(line string) (string, Bench, bool) {
	f := strings.Fields(line)
	if len(f) < 4 || !strings.HasPrefix(f[0], "Benchmark") {
		return "", Bench{}, false
	}
	name := strings.TrimPrefix(f[0], "Benchmark")
	if i := strings.LastIndexByte(name, '-'); i > 0 {
		name = name[:i] // strip the -GOMAXPROCS suffix
	}
	b := Bench{Metrics: map[string]float64{}}
	for i := 2; i+1 < len(f); i += 2 {
		v, err := strconv.ParseFloat(f[i], 64)
		if err != nil {
			return "", Bench{}, false
		}
		switch unit := f[i+1]; unit {
		case "ns/op":
			b.NsPerOp = v
		case "B/op":
			b.BytesPerOp = v
		case "allocs/op":
			b.AllocsPerOp = v
		case "MB/s":
			// machine-dependent; ns/op already covers it
		default:
			b.Metrics[unit] = v
		}
	}
	if len(b.Metrics) == 0 {
		b.Metrics = nil
	}
	return name, b, b.NsPerOp > 0
}

// diff compares snap against base and prints a report; it returns the
// number of gating failures and, separately, the number of baseline
// benchmarks the run no longer produced. A missing name is its own
// failure class — it usually means a benchmark was deleted or renamed
// without re-recording the baseline, and silently dropping it would let
// its metric gates rot. Baseline entries outside the -bench regex are
// skipped, not missing: the run never asked for them.
func diff(base, snap *Snapshot, benchRe string, mtol, tol float64, gateTimes, gateAllocs bool) (failures, missing int) {
	re, err := regexp.Compile(benchRe)
	if err != nil {
		// go test would have rejected it before any output; be safe.
		re = regexp.MustCompile(".")
	}
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)
	allocFailures := 0
	for _, n := range names {
		b := base.Benchmarks[n]
		s, ok := snap.Benchmarks[n]
		if !ok {
			if !re.MatchString("Benchmark" + n) {
				continue // filtered out by -bench, not gone
			}
			fmt.Printf("  MISSING %-32s present in baseline, absent in run\n", n)
			missing++
			continue
		}
		// Model metrics: deterministic simulator outputs, gated strictly.
		keys := make([]string, 0, len(b.Metrics))
		for k := range b.Metrics {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			want := b.Metrics[k]
			got, ok := s.Metrics[k]
			if !ok {
				fmt.Printf("  MISSING %-32s metric %q gone\n", n, k)
				failures++
				continue
			}
			if !within(got, want, mtol) {
				fmt.Printf("  DRIFT   %-32s %-24s %.6g -> %.6g (%.2f%%)\n",
					n, k, want, got, 100*(got-want)/nonzero(want))
				failures++
			}
		}
		// Zero-alloc contract: machine-independent, gated strictly. A
		// baseline of 0 allocs/op is a design guarantee (steady-state hot
		// paths), not a measurement, so any alloc at all is a regression.
		if gateAllocs && b.AllocsPerOp == 0 && s.AllocsPerOp > 0 {
			fmt.Printf("  ALLOC   %-32s 0 allocs/op baseline now %.0f allocs/op (%.0f B/op)\n",
				n, s.AllocsPerOp, s.BytesPerOp)
			failures++
			allocFailures++
		}
		// Wall times: informational unless gating is requested.
		if b.NsPerOp > 0 {
			ratio := s.NsPerOp / b.NsPerOp
			mark := "  "
			if gateTimes && ratio > tol {
				mark = "!!"
				failures++
			}
			fmt.Printf("  %s time %-32s %.3gms -> %.3gms (%.2fx)", mark, n, b.NsPerOp/1e6, s.NsPerOp/1e6, ratio)
			if gateTimes && b.AllocsPerOp > 0 && s.AllocsPerOp > tol*b.AllocsPerOp {
				fmt.Printf("  allocs %.0f -> %.0f !!", b.AllocsPerOp, s.AllocsPerOp)
				failures++
			}
			if s.SpeedupVsSerial > 0 {
				fmt.Printf("  parallel speedup %.2fx", s.SpeedupVsSerial)
			}
			fmt.Println()
		}
	}
	if allocFailures > 0 {
		// The static half of this gate usually names the offending line:
		// allocflow checks every *Into / //mptlint:noalloc root and walks
		// the cross-package call graph from it, so it names both the
		// allocation in the kernel and the allocating helper two hops away
		// that the benchmark only sees as a count (DESIGN.md §14).
		fmt.Printf("  hint: run `go run ./cmd/mptlint -run allocflow ./...` to locate the allocation statically\n")
	}
	return failures, missing
}

func within(got, want, rel float64) bool {
	d := got - want
	if d < 0 {
		d = -d
	}
	w := want
	if w < 0 {
		w = -w
	}
	if w < 1e-12 {
		return d < 1e-12 || d <= rel
	}
	return d <= rel*w
}

func nonzero(v float64) float64 {
	if v == 0 {
		return 1
	}
	return v
}

func writeJSON(path string, s *Snapshot) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}
