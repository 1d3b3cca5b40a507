package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"testing"
)

func TestPercentileInterpolates(t *testing.T) {
	xs := []float64{4, 1, 3, 2}
	for _, c := range []struct{ p, want float64 }{{0, 1}, {0.5, 2.5}, {1, 4}, {0.25, 1.75}} {
		if got := percentile(xs, c.p); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("percentile(%v, %v) = %v, want %v", xs, c.p, got, c.want)
		}
	}
	if xs[0] != 4 {
		t.Error("percentile reordered its input")
	}
	if median(nil) != 0 {
		t.Error("median of no samples is not 0")
	}
}

// TestPercentileRule pins the reporting rule: a percentile holds only
// when at least ten samples rank beyond it.
func TestPercentileRule(t *testing.T) {
	if got := samplesFor(0.95); got != 182 {
		t.Errorf("samplesFor(0.95) = %d, want 182", got)
	}
	if got := samplesFor(0.5); got != 20 {
		t.Errorf("samplesFor(0.5) = %d, want 20", got)
	}
	if percentileHolds(181, 0.95) || !percentileHolds(182, 0.95) {
		t.Error("p95 rule boundary is not at 182 samples")
	}
	rng := rand.New(rand.NewSource(1))
	for n := 1; n < 400; n++ {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = rng.Float64()
		}
		for _, p := range []float64{0.5, 0.9, 0.95, 0.99} {
			q := percentile(xs, p)
			above := 0
			for _, x := range xs {
				if x > q {
					above++
				}
			}
			if above != beyond(n, p) {
				t.Fatalf("n=%d p=%v: %d samples above the percentile, beyond says %d", n, p, above, beyond(n, p))
			}
		}
	}
}

func TestResidual(t *testing.T) {
	got := residual(2.3, 0.45, 0.5, 0.3, 0.4, 0.2)
	if math.Abs(got-0.45) > 1e-12 {
		t.Errorf("residual = %v, want 0.45", got)
	}
	if got := residual(1, 1); got != 0 {
		t.Errorf("residual with no parts = %v, want 0", got)
	}
}

func TestSelfSeconds(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "op", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},          // overlaps a: counts once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},         // only 90..100 lies inside op
		{ID: 5, Parent: 3, Name: "grandchild", Start: 25, End: 35}, // counts for b, not op
	}
	if got, want := selfSeconds(spans, 1), 50e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("self time of op = %v, want %v", got, want)
	}
	if got, want := selfSeconds(spans, 3), 20e-9; math.Abs(got-want) > 1e-15 {
		t.Errorf("self time of b = %v, want %v", got, want)
	}
	if got := selfSeconds(spans, 99); got != 0 {
		t.Errorf("self time of a missing span = %v", got)
	}
}

// TestLayerValues checks the per-layer arithmetic on a synthetic round:
// span sums, the derived record self time, and the overhead ratio.
func TestLayerValues(t *testing.T) {
	ms := int64(1e6)
	traced := childResult{
		Seconds: 2.5,
		Values:  map[string]float64{"elems": 1000, "record.records": 500, "replay.records": 500, "wire.bytes": 4000, "shadow.lookups": 750},
		Spans: []span{
			{ID: 1, Name: "op", Start: 0, End: 2500 * ms},
			{ID: 2, Parent: 1, Name: "app.run", Start: 0, End: 2000 * ms},
			{ID: 3, Parent: 2, Name: "trace.launch", Start: 100 * ms, End: 150 * ms},
			{ID: 4, Parent: 2, Name: "diag.diagnostic", Start: 500 * ms, End: 600 * ms},
			{ID: 5, Parent: 1, Name: "diag.json", Start: 2000 * ms, End: 2100 * ms},
			{ID: 6, Name: "shadow.apply", Start: 3000 * ms, End: 3300 * ms},
			{ID: 7, Name: "heatmap.apply", Start: 3300 * ms, End: 3500 * ms},
			{ID: 8, Name: "pattern.apply", Start: 3500 * ms, End: 3900 * ms},
		},
	}
	untraced := childResult{Seconds: 2.0}
	plain := childResult{Seconds: 0.5}
	v := layerValues(luleshWorkload, traced, untraced, plain)
	want := map[string]float64{
		"shadow.apply_s":            0.3,
		"heatmap.apply_s":           0.2,
		"pattern.apply_s":           0.4,
		"diag.report_s":             0.2,
		"diag.diagnostics":          1,
		"trace.drain_points_s":      0.05,
		"trace.overhead_x":          4,
		"record.self_s":             2.0 - 0.5 - 0.3 - 0.2 - 0.4 - 0.2,
		"record.elems_per_record":   2,
		"shadow.lookups_per_record": 1.5,
		"wire.bytes_per_record":     8,
		"cuda.ns_per_elem":          0.5e9 / 1000,
		"cuda.run_self_s":           2.0 - 0.05 - 0.1,
		"bench.tracing_overhead_s":  0.5,
	}
	for name, w := range want {
		if math.Abs(v[name]-w) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, v[name], w)
		}
	}
}

func TestChromeTrace(t *testing.T) {
	var buf bytes.Buffer
	err := writeChromeTrace(&buf, [][]span{
		{{ID: 1, Name: "op", Start: 1000, End: 5000, Track: laneMain}},
		{{ID: 1, Name: "op", Start: 0, End: 10, Track: laneMain}, {ID: 2, Parent: 1, Name: "x", Start: 2, End: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.TraceEvents) != 3 {
		t.Fatalf("%d events, want 3", len(doc.TraceEvents))
	}
	e := doc.TraceEvents[0]
	if e.Ph != "X" || e.Ts != 1 || e.Dur != 4 || e.Pid != 1 {
		t.Errorf("first event %+v", e)
	}
	if last := doc.TraceEvents[2]; last.Pid != 2 || last.Args["parent"] != 1 {
		t.Errorf("last event %+v", last)
	}
}

func TestRecorderNilIsOff(t *testing.T) {
	var r *recorder
	id := r.begin("x", 0, laneMain)
	r.end(id)
	if id != 0 || r.closed() != nil {
		t.Error("a nil recorder recorded a span")
	}
}
