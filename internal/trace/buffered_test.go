package trace_test

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"xplacer/internal/apps/lulesh"
	"xplacer/internal/apps/rodinia"
	"xplacer/internal/apps/sw"
	"xplacer/internal/core"
	"xplacer/internal/cuda"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/timeline"
	"xplacer/internal/trace"
	"xplacer/internal/whatif"
)

// shadowSnapshots copies every shadow entry's bytes at each diagnostic
// instant, before the diagnostic resets the table.
type shadowSnapshots struct {
	tr   *trace.Tracer
	snap []string
}

func (s *shadowSnapshots) Consume(ev *timeline.Event) {
	if ev.Kind != timeline.KindDiagnostic {
		return
	}
	var b strings.Builder
	for _, e := range s.tr.Table().Entries() {
		fmt.Fprintf(&b, "%d %s %x\n", e.AllocID, e.Label, e.Shadow)
	}
	s.snap = append(s.snap, b.String())
}

// runOutcome is everything an analysis run produces from the access
// stream.
type runOutcome struct {
	diagText string
	shadows  []string
	stats    trace.Stats
	heats    []heatView
	rows     any
	findings []string
	report   []byte
}

type heatView struct {
	Base    uint64
	Words   int
	Label   string
	Counts  [machine.NumDevices][]uint32
	Totals  [machine.NumDevices]uint64
	History []record.EpochTotals
}

// runAnalyses runs app in an instrumented session with the heat-map and
// pattern sinks and what-if capture on; slots forces the per-P slot path
// for kernel accesses.
func runAnalyses(t *testing.T, slots bool, app func(s *core.Session, diagOut *bytes.Buffer) error) runOutcome {
	t.Helper()
	plat := machine.IntelPascal()
	s := core.MustSession(plat)
	if _, ok := s.Ctx.Tracer().(cuda.BufferedTracer); !ok {
		t.Fatal("the session tracer should offer a kernel recorder")
	}
	if slots {
		s.Ctx.SetTracer(slotOnly{s.Tracer, s.Tracer})
	}
	hm := record.NewHeatmapSink(s.Tracer.Table())
	s.Tracer.AddSink(hm)
	ps := s.Tracer.EnablePatterns(s.Ctx.Now)
	s.Ctx.SetWhatIfCapture(true)
	snaps := &shadowSnapshots{tr: s.Tracer}
	s.Ctx.Timeline().AddConsumer(snaps)

	var out runOutcome
	var text bytes.Buffer
	if err := app(s, &text); err != nil {
		t.Fatal(err)
	}
	out.diagText = text.String()
	out.stats = s.Tracer.Stats()
	for _, h := range hm.Heats() {
		out.heats = append(out.heats, heatView{uint64(h.Base), h.Words, h.Label(), h.Counts, h.Totals, h.History})
	}
	out.rows = ps.Rows()

	rep := s.Diagnostic(nil, "end of run")
	out.shadows = snaps.snap
	for _, r := range s.Reports() {
		for _, f := range r.Findings {
			out.findings = append(out.findings, fmt.Sprintf("%s: %+v", r.Title, f))
		}
	}
	rep.Heatmap = diag.SummarizeHeatmap(hm, 64)
	rep.Patterns = diag.SummarizePatterns(ps, plat.CoalescePenaltyPct)
	rep.Patterns.AnnotateHeatmap(rep.Heatmap)
	wi, err := whatif.Analyze(s.Ctx.Timeline().Events(), plat)
	if err != nil {
		t.Fatal(err)
	}
	rep.WhatIf = wi
	var js bytes.Buffer
	if err := rep.JSON(&js); err != nil {
		t.Fatal(err)
	}
	out.report = js.Bytes()
	return out
}

// TestBufferedKernelsMatchSlotPath runs LULESH, Smith-Waterman and
// Pathfinder once with kernels recording through the tracer's single-owner
// kernel buffer and once through the per-P slots, and requires every
// analysis output to be identical.
func TestBufferedKernelsMatchSlotPath(t *testing.T) {
	apps := map[string]struct {
		run   func(s *core.Session, w *bytes.Buffer) error
		diags int // diagnostics the run takes, the end-of-run one included
	}{
		"lulesh": {func(s *core.Session, w *bytes.Buffer) error {
			_, err := lulesh.Run(s, lulesh.Config{Size: 6, Timesteps: 3, DiagEvery: 1, DiagOut: w})
			return err
		}, 4},
		"sw": {func(s *core.Session, w *bytes.Buffer) error {
			_, err := sw.Run(s, sw.Config{N: 40, M: 36, Seed: 3, DiagEvery: 10, DiagOut: w, Traceback: true})
			return err
		}, 8},
		"pathfinder": {func(s *core.Session, w *bytes.Buffer) error {
			_, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 300, Rows: 41, Pyramid: 5, Seed: 7, DiagEvery: 2, DiagOut: w})
			return err
		}, 5},
		"pathfinder-overlap": {func(s *core.Session, w *bytes.Buffer) error {
			_, err := rodinia.RunPathfinder(s, rodinia.PathfinderConfig{Cols: 300, Rows: 41, Pyramid: 5, Seed: 7, Overlap: true, DiagOut: w})
			return err
		}, 1},
	}
	for name, app := range apps {
		t.Run(name, func(t *testing.T) {
			buf := runAnalyses(t, false, app.run)
			slot := runAnalyses(t, true, app.run)
			if len(slot.shadows) != app.diags {
				t.Fatalf("%d diagnostics ran, want %d", len(slot.shadows), app.diags)
			}
			if !reflect.DeepEqual(buf.shadows, slot.shadows) {
				t.Error("shadow bytes differ at a diagnostic")
			}
			if buf.stats != slot.stats {
				t.Errorf("stats: buffered %+v, slots %+v", buf.stats, slot.stats)
			}
			if !reflect.DeepEqual(buf.heats, slot.heats) {
				t.Error("heat maps differ")
			}
			if !reflect.DeepEqual(buf.rows, slot.rows) {
				t.Error("pattern rows differ")
			}
			if !reflect.DeepEqual(buf.findings, slot.findings) {
				t.Errorf("findings differ:\nbuffered %q\nslots    %q", buf.findings, slot.findings)
			}
			if buf.diagText != slot.diagText {
				t.Error("diagnostic text differs")
			}
			if !bytes.Equal(buf.report, slot.report) {
				t.Error("report JSON (heat map, patterns, what-if) differs")
			}
		})
	}
}
