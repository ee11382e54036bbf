// Command perfbench is the repository's host-time benchmark: it runs one
// named workload for a fixed time, checks every operation's outputs, and
// prints its metrics as one JSON object on the last line of standard
// output.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload step-early --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the result holds the end-to-end metrics, measured with
// tracing off. With --trace 1 it holds the per-layer metrics of a traced
// run, and the spans are written as Chrome trace_event JSON under
// .bench_build/perfbench/. README.md in this directory explains the
// workloads and how each layer metric maps to an end-to-end metric.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/pprof"
	"time"

	"mptwino/internal/parallel"
	"mptwino/internal/tensor"
)

// workload is one benchmark input set. An op is one closed-loop
// operation: the next starts when the previous one has finished.
type workload interface {
	// setup builds the workload's system and inputs from seed, replacing
	// any earlier state.
	setup(seed uint64) error
	// warm runs the one-time reference checks and a first, untimed op.
	warm() error
	// run performs one op; it is what the end-to-end timings measure.
	run() error
	// check validates the outputs of the last run.
	check() error
	// traced performs one op through the modules' public calls, recording
	// spans into tr and per-layer quantities into acc. It returns the
	// op's traced time in seconds, without the replay and check work.
	traced(tr *tracer, acc *layerAcc) (float64, error)
	// imagesPerOp is the number of images one op trains, infers or plans.
	imagesPerOp() int
	// commBytesPerOp is the exact byte count one op exchanges.
	commBytesPerOp() float64
}

var workloads = []struct {
	name string
	make func() workload
}{
	{"step-early", func() workload { return newStepBench(stepEarly) }},
	{"step-late", func() workload { return newStepBench(stepLate) }},
	{"infer-predict", func() workload { return &inferBench{} }},
	{"plan-validate", func() workload { return &planBench{} }},
}

// A run sets its workload up at least minSetups times, and again until
// setupBudget has passed or maxSetups is reached; setup_s is the median.
const (
	minSetups   = 3
	maxSetups   = 100
	setupBudget = 500 * time.Millisecond
)

// outDir holds the traced runs' Chrome traces.
const outDir = ".bench_build/perfbench"

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts attempted and failed ops; every failed check and every
// error is a failed op.
type tally struct{ attempted, failed int }

func (t *tally) record(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		fmt.Fprintf(os.Stderr, "perfbench: op %d failed: %v\n", t.attempted, err)
	}
}

// safely runs f, turning a panic into an error so that it counts as a
// failed op instead of ending the run.
func safely(f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	return f()
}

func main() { os.Exit(run()) }

func run() int {
	fset := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fset.String("workload", "", "workload to run: step-early, step-late, infer-predict or plan-validate")
	seed := fset.Uint64("seed", 1, "seed the workload's inputs are drawn from")
	secs := fset.Float64("seconds", 20, "how long the measurement runs")
	traceMode := fset.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
	cpuprofile := fset.String("cpuprofile", "", "write a CPU profile of the run to this file")
	if err := fset.Parse(os.Args[1:]); err != nil {
		return 2
	}
	var w workload
	for _, c := range workloads {
		if c.name == *name {
			w = c.make()
		}
	}
	if w == nil || (*traceMode != 0 && *traceMode != 1) || *secs <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload <name> --seconds >0 --trace 0|1 (got %q, %v, %d)\n", *name, *secs, *traceMode)
		return 2
	}
	// The planner goldens are read from the checkout; fail before
	// measuring anything if this is not one.
	if _, err := os.Stat(goldenDir); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: run from the repository root: %v\n", err)
		return 1
	}
	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
		defer pprof.StopCPUProfile()
	}

	budget := time.Duration(*secs * float64(time.Second))
	var (
		res     result
		details map[string]any
		err     error
	)
	if *traceMode == 1 {
		res, details, err = tracedRun(w, *name, *seed, budget)
	} else {
		res, details, err = timedRun(w, *seed, budget)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	details["workload"] = *name
	info, err := json.Marshal(map[string]any{"manifest": manifest(*seed), "details": details})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(info))
	fmt.Println(string(out))
	return 0
}

// setupAndWarm sets the workload up — repeatedly when repeat is set; the
// last setup is the one measured — and runs its warm-up op, which counts
// as attempted.
func setupAndWarm(w workload, seed uint64, repeat bool, t *tally) ([]float64, error) {
	var setupS []float64
	start := now()
	for len(setupS) == 0 || repeat && len(setupS) < maxSetups &&
		(len(setupS) < minSetups || now().Sub(start) < setupBudget) {
		t0 := now()
		if err := w.setup(seed); err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, now().Sub(t0).Seconds())
	}
	t.record(safely(w.warm))
	return setupS, nil
}

// opSamples are the per-op measurements of an untraced loop.
type opSamples struct {
	secs, cpu, allocBytes, allocs []float64
	mem                           memSample // summed over the ops
}

// measureOps runs untraced ops until budget has passed.
func measureOps(w workload, budget time.Duration, t *tally) opSamples {
	var s opSamples
	start := now()
	for len(s.secs) == 0 || now().Sub(start) < budget {
		m0 := readMem()
		c0 := cpuSeconds()
		t0 := now()
		err := safely(w.run)
		el := now().Sub(t0)
		cpu := cpuSeconds() - c0
		d := readMem().sub(m0)
		if err == nil {
			err = safely(w.check)
		}
		t.record(err)
		s.secs = append(s.secs, el.Seconds())
		s.cpu = append(s.cpu, cpu)
		s.allocBytes = append(s.allocBytes, float64(d.bytes))
		s.allocs = append(s.allocs, float64(d.mallocs))
		s.mem.gcs += d.gcs
		s.mem.pauseNs += d.pauseNs
	}
	return s
}

func timedRun(w workload, seed uint64, budget time.Duration) (result, map[string]any, error) {
	var t tally
	setupS, err := setupAndWarm(w, seed, true, &t)
	if err != nil {
		return result{}, nil, err
	}
	s := measureOps(w, budget, &t)
	var total float64
	for _, v := range s.secs {
		total += v
	}
	tailV, tailP := tail(s.secs)
	m := map[string]metric{
		"setup_s":            {median(setupS), "s"},
		"images_per_s":       {float64(w.imagesPerOp()*len(s.secs)) / total, "1/s"},
		"op_s_p50":           {median(s.secs), "s"},
		"op_s_tail":          {tailV, "s"},
		"alloc_bytes_per_op": {median(s.allocBytes), "bytes"},
		"allocs_per_op":      {median(s.allocs), "count"},
		"max_rss_mb":         {maxRSSMB(), "MiB"},
	}
	details := map[string]any{
		"samples":           len(s.secs),
		"op_s_tail_pct":     tailP,
		"images_per_op":     w.imagesPerOp(),
		"comm_bytes_per_op": w.commBytesPerOp(),
		"failed_op_ratio":   float64(t.failed) / float64(t.attempted),
		"gc_per_op":         float64(s.mem.gcs) / float64(len(s.secs)),
		"setup_s_all":       setupS,
		"cpu_s_per_op_p50":  median(s.cpu),
		"op_s_all":          s.secs,
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, details, nil
}

// tracedRun gives the per-layer metrics. It first runs untraced ops for a
// third of the budget, as the base of trace.overhead_ratio and for the GC
// counts, then traced ops for the rest.
func tracedRun(w workload, name string, seed uint64, budget time.Duration) (result, map[string]any, error) {
	var t tally
	if _, err := setupAndWarm(w, seed, false, &t); err != nil {
		return result{}, nil, err
	}
	start := now()
	s := measureOps(w, budget/3, &t)
	tr := newTracer()
	acc := newLayerAcc()
	var tracedS []float64
	for len(tracedS) == 0 || now().Sub(start) < budget {
		var sec float64
		err := safely(func() error {
			var err error
			sec, err = w.traced(tr, acc)
			return err
		})
		t.record(err)
		tracedS = append(tracedS, sec)
		tr.op++
	}
	m := acc.finalize(len(tracedS))
	n := float64(len(s.secs))
	m["runtime.gc_per_op"] = metric{float64(s.mem.gcs) / n, "count"}
	m["runtime.gc_pause_s_per_op"] = metric{float64(s.mem.pauseNs) / 1e9 / n, "s"}
	m["trace.overhead_ratio"] = metric{median(tracedS) / median(s.secs), "ratio"}

	path := filepath.Join(outDir, fmt.Sprintf("trace-%s-seed%d.json", name, seed))
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return result{}, nil, err
	}
	if err := tr.writeChrome(path); err != nil {
		return result{}, nil, fmt.Errorf("write trace: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: wrote %d spans to %s\n", len(tr.spans), path)
	details := map[string]any{
		"untraced_ops": len(s.secs),
		"traced_ops":   len(tracedS),
		"spans":        len(tr.spans),
		"trace_file":   path,
	}
	return result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, details, nil
}

// manifest records what the numbers were measured on, so that a change of
// GEMM tier, worker count or toolchain shows next to them.
func manifest(seed uint64) map[string]any {
	commit, modified := "unknown", "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	return map[string]any{
		"go":              runtime.Version(),
		"goos":            runtime.GOOS,
		"goarch":          runtime.GOARCH,
		"gomaxprocs":      runtime.GOMAXPROCS(0),
		"workers":         parallel.DefaultWorkers(),
		"gemm_kernel":     tensor.GemmKernel(),
		"cpu_features":    tensor.CPUFeatures(),
		"seed":            seed,
		"commit":          commit,
		"commit_modified": modified,
		"source_sha256":   sourceDigest(),
	}
}

// sourceDigest hashes the Go sources the benchmark is built from, which
// names the code when the checkout carries no commit.
func sourceDigest() string {
	h := sha256.New()
	for _, root := range []string{"go.mod", "internal", "perfbench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || (filepath.Ext(path) != ".go" && filepath.Base(path) != "go.mod") {
				return err
			}
			f, err := os.Open(path)
			if err != nil {
				return err
			}
			defer f.Close()
			fmt.Fprintf(h, "%s\n", path)
			_, err = io.Copy(h, f)
			return err
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return "unknown"
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}
