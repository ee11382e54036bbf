package traceview_test

import (
	"bytes"
	"encoding/json"
	"io"
	"testing"

	"mptwino/internal/model"
	"mptwino/internal/traceview"
)

// FuzzParseTrace feeds mutated Chrome traces to the parser. Input that is
// not exactly one JSON document must fail to parse, and any trace that
// parses must go through Analyze, WriteText and WriteHTML without a panic.
// The seeds are the serialized alexnet and vgg16 autoplan traces behind the
// committed report goldens, plus edge shapes: an empty trace, negative
// times, a span that names itself as parent, and trailing data.
func FuzzParseTrace(f *testing.F) {
	for _, net := range []model.Network{model.AlexNet(), model.VGG16()} {
		_, tracer := autoplanRun(f, net, 1)
		var buf bytes.Buffer
		if err := tracer.WriteJSON(&buf); err != nil {
			f.Fatal(err)
		}
		f.Add(buf.Bytes())
	}
	f.Add([]byte(`{"traceEvents":[]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"a","ph":"X","ts":-5,"dur":-3,"pid":1,"tid":1,` +
		`"args":{"tv":"compute","tv_parent":"a","layer":"l"}},{"name":"i","ph":"i","ts":2,"pid":1,"tid":1}]}`))
	f.Add([]byte(`{"traceEvents":[{"name":"p","ph":"X","ts":0,"dur":10,"pid":1,"tid":1,` +
		`"args":{"tv":"phase","layer":"l"}}]} {"traceEvents":[]}`))
	f.Fuzz(func(t *testing.T, data []byte) {
		run, err := traceview.ParseTrace(bytes.NewReader(data))
		if !json.Valid(data) {
			if err == nil {
				t.Fatalf("malformed JSON parsed without an error: %q", data)
			}
			return
		}
		if err != nil {
			return // valid JSON that is not a trace document
		}
		rep := traceview.Analyze(run, traceview.Options{})
		if err := rep.WriteText(io.Discard); err != nil {
			t.Fatalf("WriteText: %v", err)
		}
		if err := traceview.WriteHTML(io.Discard, run, rep); err != nil {
			t.Fatalf("WriteHTML: %v", err)
		}
	})
}
