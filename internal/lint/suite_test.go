package lint_test

import (
	"strings"
	"testing"

	"mptwino/internal/lint"
	"mptwino/internal/lint/linttest"
)

// Each analyzer has a golden testdata package annotated with // want
// expectations (see linttest). The suites run the driver stack end to
// end: go list -export loading, type-checking, analysis, and //nolint
// suppression with the mandatory-reason rule.

func TestMapIter(t *testing.T) {
	linttest.Run(t, "testdata/src/mapiter", lint.MapIter)
}

func TestNoGoroutine(t *testing.T) {
	linttest.Run(t, "testdata/src/nogoroutine", lint.NoGoroutine)
}

func TestNoAlloc(t *testing.T) {
	linttest.Run(t, "testdata/src/noalloc", lint.NoAlloc)
}

func TestNoTime(t *testing.T) {
	linttest.Run(t, "testdata/src/notime", lint.NoTime)
}

// The telemetry rule keys on the package name, so a testdata package
// declaring `package telemetry` exercises the real invariant: no time
// import at all in the cycle-domain tracing layer.
func TestNoTimeTelemetry(t *testing.T) {
	linttest.Run(t, "testdata/src/telemetrytime", lint.NoTime)
}

// The flow-sensitive tier: sharedwrite decides "partitioned by the
// worker/item index" with the dataflow engine (cfg.go), so the suite pins
// loop-carried offsets, reassignment, and the alias classification.
func TestSharedWrite(t *testing.T) {
	linttest.Run(t, "testdata/src/sharedwrite", lint.SharedWrite)
}

func TestDetSelect(t *testing.T) {
	linttest.Run(t, "testdata/src/detselect", lint.DetSelect)
}

// The allocflow fixture includes a subdirectory package (helpers/) so the
// suite pins cross-package call-graph traversal.
func TestAllocFlow(t *testing.T) {
	linttest.Run(t, "testdata/src/allocflow", lint.AllocFlow)
}

// The suppression layer is tested as its own suite: mandatory reasons,
// line+analyzer scoping, per-name stale detection.
func TestNolintStale(t *testing.T) {
	linttest.Run(t, "testdata/src/nolintstale", lint.MapIter, lint.NoTime)
}

// A -run selection must not silently drop a misspelled or deleted
// analyzer name: ByName errors and names every unknown entry.
func TestByNameRejectsUnknownNames(t *testing.T) {
	as, err := lint.ByName([]string{"mapiter", "notime"})
	if err != nil || len(as) != 2 {
		t.Fatalf("ByName(mapiter,notime) = %d analyzers, %v; want 2, nil", len(as), err)
	}
	if as, err := lint.ByName(nil); err != nil || len(as) != len(lint.All()) {
		t.Fatalf("ByName(nil) = %d analyzers, %v; want the full suite", len(as), err)
	}
	as, err = lint.ByName([]string{"mapiter", "floatordr", "", "nosuch"})
	if err == nil {
		t.Fatalf("ByName with unknown names returned %d analyzers and no error", len(as))
	}
	for _, name := range []string{`"floatordr"`, `""`, `"nosuch"`} {
		if !strings.Contains(err.Error(), name) {
			t.Errorf("error %q does not name unknown analyzer %s", err, name)
		}
	}
	if strings.Contains(err.Error(), `"mapiter"`) {
		t.Errorf("error %q names the known analyzer mapiter", err)
	}
}
