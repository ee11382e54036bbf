package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"time"
)

// hostPID is the Chrome-trace process that holds the benchmark's
// host-clock spans, apart from the cycle-domain lanes of the simulator's
// own traces (pids 1–3).
const hostPID = 100

// Thread lanes of the host-clock process.
const (
	tidCalls  = 0 // ops and the engine / planner calls inside them
	tidReplay = 1 // winograd and quant stages replayed from outside the engine
)

// span is one timed call. parent indexes the span that caused it (-1 for
// an op); op groups every span of one operation.
type span struct {
	name, cat string
	tid       int
	parent    int
	op        int
	start     time.Duration // since the tracer started
	dur       time.Duration
}

// tracer holds the traced run's spans in memory until the run ends.
type tracer struct {
	t0    time.Time
	op    int
	spans []span
}

func newTracer() *tracer { return &tracer{t0: now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name, cat string, tid, parent int) int {
	t.spans = append(t.spans, span{name: name, cat: cat, tid: tid, parent: parent, op: t.op})
	id := len(t.spans) - 1
	t.spans[id].start = now().Sub(t.t0)
	return id
}

// end closes span id and returns its duration in seconds.
func (t *tracer) end(id int) float64 {
	s := &t.spans[id]
	s.dur = now().Sub(t.t0) - s.start
	return s.dur.Seconds()
}

type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat,omitempty"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// writeChrome writes the spans as Chrome trace_event JSON (load it in
// ui.perfetto.dev or chrome://tracing). Timestamps are host microseconds.
func (t *tracer) writeChrome(path string) error {
	events := []chromeEvent{
		{Name: "process_name", Ph: "M", PID: hostPID, Args: map[string]any{"name": "perfbench host clock"}},
		{Name: "thread_name", Ph: "M", PID: hostPID, TID: tidCalls, Args: map[string]any{"name": "ops and module calls"}},
		{Name: "thread_name", Ph: "M", PID: hostPID, TID: tidReplay, Args: map[string]any{"name": "replayed stages"}},
	}
	for id, s := range t.spans {
		events = append(events, chromeEvent{
			Name: s.name, Cat: s.cat, Ph: "X",
			TS:  float64(s.start.Nanoseconds()) / 1e3,
			Dur: float64(s.dur.Nanoseconds()) / 1e3,
			PID: hostPID, TID: s.tid,
			Args: map[string]any{"id": id, "parent": s.parent, "op": s.op},
		})
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"}); err != nil {
		f.Close()
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
