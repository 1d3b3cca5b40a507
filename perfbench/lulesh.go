package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"time"

	"xplacer/internal/apps/lulesh"
	"xplacer/internal/core"
	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/record"
	"xplacer/internal/whatif"
	"xplacer/internal/wire"
)

// platform is the simulated machine of every simulated run.
const platform = "Intel+Pascal"

// luleshSteps is how many timesteps one lulesh-analyses run simulates; a
// diagnostic follows each of them.
const luleshSteps = 4

var luleshWorkload = &workload{
	name:        "lulesh-analyses",
	opsPerChild: 1,
	setup:       luleshSetup,
	op:          luleshOp,
	plain:       luleshPlain,
}

// runLulesh runs LULESH on s, sending its per-step diagnostics to diagOut,
// and returns its answer: the value an uninstrumented run must match.
func runLulesh(o options, s *core.Session, diagOut io.Writer) (string, error) {
	cfg := lulesh.Config{Size: 24, Timesteps: luleshSteps, Variant: lulesh.Baseline, DiagEvery: 1, DiagOut: diagOut}
	if o.tiny {
		cfg.Size, cfg.Timesteps = 6, 2
	}
	res, err := lulesh.Run(s, cfg)
	return strconv.FormatFloat(res.FinalOriginEnergy, 'g', -1, 64), err
}

// luleshSetup computes the reference answer with an uninstrumented run.
func luleshSetup(o options, dir string) childResult {
	res := childResult{Ops: 1}
	start := time.Now()
	plat, err := machine.ByName(platform)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	s, err := core.NewPlainSession(plat)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	answer, err := runLulesh(o, s, nil)
	if err != nil {
		res.fail("uninstrumented run: %v", err)
		return res
	}
	res.Seconds = time.Since(start).Seconds()
	if err := keepOrCompare(filepath.Join(dir, "answer"), []byte(answer)); err != nil {
		res.fail("%v", err)
	}
	return res
}

// keepOrCompare writes data to path, or, when path exists from an earlier
// set-up of the same run, checks that data repeats it byte for byte.
func keepOrCompare(path string, data []byte) error {
	old, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return os.WriteFile(path, data, 0o644)
	}
	if err != nil {
		return err
	}
	if !bytes.Equal(old, data) {
		return fmt.Errorf("set-up output %s differs between set-ups of one input", filepath.Base(path))
	}
	return nil
}

// luleshPlain runs the app uninstrumented: the cuda.plain_s baseline. Only
// the tracer is off; the simulator keeps its what-if capture, so the
// baseline does the same simulator work as the instrumented run.
func luleshPlain(o options, _ string) childResult {
	res := childResult{Ops: 1}
	plat, err := machine.ByName(platform)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	start := time.Now()
	s, err := core.NewPlainSession(plat)
	if err == nil {
		s.Ctx.SetWhatIfCapture(true)
		_, err = runLulesh(o, s, io.Discard)
	}
	res.Seconds = time.Since(start).Seconds()
	if err != nil {
		res.fail("uninstrumented run: %v", err)
	}
	return res
}

// luleshOp is one instrumented run from session start to the last byte of
// the final JSON report. Traced (rec != nil), it also installs the
// benchmark's tracer wrapper and counting sink, captures the run's wire
// stream, and afterwards replays that stream through fresh sinks.
func luleshOp(o options, dir string, rec *recorder) childResult {
	res := childResult{Ops: 1}
	want, err := os.ReadFile(filepath.Join(dir, "answer"))
	if err != nil {
		res.fail("%v", err)
		return res
	}
	plat, err := machine.ByName(platform)
	if err != nil {
		res.fail("%v", err)
		return res
	}

	start := time.Now()
	opID := rec.begin("op", 0, laneMain)
	cur := opID
	s, err := core.NewSession(plat)
	if err != nil {
		res.fail("%v", err)
		return res
	}
	hm := record.NewHeatmapSink(s.Tracer.Table())
	s.Tracer.AddSink(hm)
	ps := s.Tracer.EnablePatterns(s.Ctx.Now)
	s.Ctx.SetWhatIfCapture(true)
	dc := &diagClock{rec: rec, parent: &cur}
	s.Ctx.Timeline().AddConsumer(dc)

	var wrap *tracerWrap
	var counts *countSink
	var stream *wire.StreamSink
	var captured bytes.Buffer
	if rec != nil {
		wrap = &tracerWrap{inner: s.Tracer, rec: rec, parent: &cur}
		s.Ctx.SetTracer(wrap)
		counts = &countSink{}
		s.Tracer.AddSink(counts)
		stream, err = wire.NewStreamSink(&captured, wire.Config{
			Hello: wire.Hello{Tenant: "bench", Process: o.workload, Platform: plat.Name},
			Clock: s.Ctx.Now,
		})
		if err != nil {
			res.fail("%v", err)
			return res
		}
		s.Tracer.EnableStream(stream)
	}

	cur = rec.begin("app.run", opID, laneMain)
	answer, err := runLulesh(o, s, dc)
	rec.end(cur)
	cur = opID
	if err != nil {
		res.fail("instrumented run: %v", err)
		return res
	}

	// The final report: the Fig. 4 diagnostic plus the heat-map, pattern
	// and what-if sections, encoded as JSON.
	timed := func(name string, fn func()) {
		id := rec.begin(name, opID, laneMain)
		fn()
		rec.end(id)
	}
	repStart := time.Now()
	var rep diag.Report
	timed("diag.diagnostic", func() { rep = s.Diagnostic(nil, "end of run") })
	dc.pending = false
	timed("diag.heatmap", func() { rep.Heatmap = diag.SummarizeHeatmap(hm, 64) })
	timed("diag.patterns", func() {
		rep.Patterns = diag.SummarizePatterns(ps, plat.CoalescePenaltyPct)
		rep.Patterns.AnnotateHeatmap(rep.Heatmap)
	})
	timed("whatif.analyze", func() {
		rep.WhatIf, err = whatif.AnalyzeParallel(s.Ctx.Timeline().Events(), plat, 0)
	})
	if err != nil {
		res.fail("what-if analysis: %v", err)
	}
	var report bytes.Buffer
	timed("diag.json", func() { err = rep.JSON(&report) })
	if err != nil {
		res.fail("encode report: %v", err)
	}
	end := time.Now()
	rec.end(opID)
	res.Seconds = end.Sub(start).Seconds()
	// Snapshot samples: each per-step diagnostic and the final report.
	res.Samples = append(dc.samples, float64(end.Sub(repStart))/1e6)

	// Checks.
	if answer != string(want) {
		res.fail("answer %s differs from the uninstrumented run's %s", answer, want)
	}
	if !hasFinding(s.Reports(), detect.AlternatingAccess) {
		res.fail("no %s finding", detect.AlternatingAccess)
	}
	res.Digest = reportDigest(report.Bytes(), s.Reports())

	stats := s.Tracer.Stats()
	um := s.UMStats()
	res.set("records", float64(stats.Reads+stats.Writes+stats.ReadWrites))
	res.set("cuda.sim_ms", float64(s.SimTime())/float64(machine.Millisecond))
	res.set("um.faults", float64(um.FaultsCPU+um.FaultsGPU))
	res.set("um.migrated_mb", float64(um.BytesH2D+um.BytesD2H)/(1<<20))
	res.set("report_bytes", float64(report.Len()))
	if rec == nil {
		return res
	}

	if err := stream.Close(); err != nil {
		res.fail("close captured stream: %v", err)
		return res
	}
	res.set("trace.access_calls", float64(wrap.access))
	res.set("trace.range_calls", float64(wrap.ranges))
	res.set("trace.launches", float64(wrap.launches))
	res.set("record.batches", float64(counts.batches))
	res.set("record.records", float64(counts.records))
	res.set("elems", float64(counts.elems))
	_, vals, err := replayLayers(plat, rec, [][]byte{captured.Bytes()})
	if err != nil {
		res.fail("%v", err)
		return res
	}
	for k, v := range vals {
		res.set(k, v)
	}
	if int64(vals["replay.records"]) != counts.records {
		res.fail("replay applied %v records, the run drained %d", vals["replay.records"], counts.records)
	}
	return res
}

func hasFinding(reports []diag.Report, kind detect.Kind) bool {
	for _, r := range reports {
		for _, f := range r.Findings {
			if f.Kind == kind {
				return true
			}
		}
	}
	return false
}

// reportDigest hashes the final JSON report and every diagnostic's
// findings, the outputs that must repeat byte for byte.
func reportDigest(final []byte, reports []diag.Report) string {
	h := sha256.New()
	h.Write(final)
	enc := json.NewEncoder(h)
	for _, r := range reports {
		_ = enc.Encode(r.Findings) // a hash.Hash never fails a write
	}
	return hex.EncodeToString(h.Sum(nil))
}
