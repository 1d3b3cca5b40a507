package main

import (
	"bytes"
	"fmt"
	"io"
	"time"

	"xplacer/internal/detect"
	"xplacer/internal/diag"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/pattern"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/timeline"
	"xplacer/internal/trace"
	"xplacer/internal/um"
	"xplacer/internal/wire"
)

// Span lanes (Chrome trace tids).
const (
	laneMain   = 1
	laneReplay = 2
	lanePoll   = 3
	laneSend   = 4 // + sender index
)

// tracerWrap is the benchmark's cuda.Tracer and cuda.RangeTracer around a
// session's *trace.Tracer: it counts every call and times the drain-point
// wrappers (launch, transfer, free, alloc). Single accesses are counted
// but never timed: a clock read costs more than the access it would time.
// The simulator drives its tracer from one goroutine, so plain counters
// suffice.
type tracerWrap struct {
	inner  *trace.Tracer
	rec    *recorder
	parent *int // current enclosing span id

	access, ranges, launches int64
}

func (w *tracerWrap) drain(name string) func() {
	id := w.rec.begin(name, *w.parent, laneMain)
	return func() { w.rec.end(id) }
}

func (w *tracerWrap) TraceAccess(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, size int64, kind memsim.AccessKind) {
	w.access++
	w.inner.TraceAccess(dev, a, addr, size, kind)
}

func (w *tracerWrap) TraceAccessRange(dev machine.Device, a *memsim.Alloc, addr memsim.Addr, count int, stride, size int64, kind memsim.AccessKind) {
	w.ranges++
	w.inner.TraceAccessRange(dev, a, addr, count, stride, size, kind)
}

func (w *tracerWrap) TraceAlloc(a *memsim.Alloc) {
	defer w.drain("trace.alloc")()
	w.inner.TraceAlloc(a)
}

func (w *tracerWrap) TraceFree(a *memsim.Alloc) {
	defer w.drain("trace.free")()
	w.inner.TraceFree(a)
}

func (w *tracerWrap) TraceTransfer(a *memsim.Alloc, dir um.TransferDir, off, n int64) {
	defer w.drain("trace.transfer")()
	w.inner.TraceTransfer(a, dir, off, n)
}

func (w *tracerWrap) TraceKernelLaunch(name string) {
	w.launches++
	defer w.drain("trace.launch")()
	w.inner.TraceKernelLaunch(name)
}

// countSink is a record.Sink that counts drained batches, records and the
// element accesses they stand for.
type countSink struct {
	batches, records, elems int64
}

func (c *countSink) Apply(batch []shadow.Access, _ *record.Cursor) {
	c.batches++
	c.records += int64(len(batch))
	for i := range batch {
		c.elems += batch[i].Elems()
	}
}

// diagClock times the diagnostics an application runs by itself: the
// diagnostic instant on the simulated timeline marks the start (it is
// emitted before the analysis), and the first write of the report text
// marks the end. It is a timeline.Consumer and the run's DiagOut.
type diagClock struct {
	rec     *recorder
	parent  *int
	start   time.Time
	pending bool
	samples []float64 // milliseconds
}

func (d *diagClock) Consume(ev *timeline.Event) {
	if ev.Kind == timeline.KindDiagnostic {
		d.start, d.pending = time.Now(), true
	}
}

func (d *diagClock) Write(p []byte) (int, error) {
	if d.pending {
		now := time.Now()
		d.pending = false
		d.samples = append(d.samples, float64(now.Sub(d.start))/1e6)
		d.rec.add("diag.diagnostic", *d.parent, laneMain, d.start, now)
	}
	return len(p), nil
}

// replayer applies a captured wire stream to fresh TableSink, HeatmapSink
// and pattern.Sink instances the way the aggregator's apply worker does,
// timing each sink's Apply on its own.
type replayer struct {
	plat  *machine.Platform
	table *shadow.Table
	tsink *record.TableSink
	cur   record.Cursor
	hm    *record.HeatmapSink
	ps    *pattern.Sink
	now   machine.Duration

	rec    *recorder
	parent int

	enc     []byte // scratch for the encode pass
	records int64
}

func newReplayer(plat *machine.Platform, rec *recorder, parent int) *replayer {
	table := shadow.NewTable()
	r := &replayer{
		plat: plat, table: table, tsink: record.NewTableSink(table),
		hm: record.NewHeatmapSink(table), ps: pattern.NewSink(table),
		rec: rec, parent: parent,
	}
	r.ps.SetClock(func() machine.Duration { return r.now })
	return r
}

func (r *replayer) timed(name string, fn func()) {
	start := time.Now()
	fn()
	r.rec.add(name, r.parent, laneReplay, start, time.Now())
}

// run decodes stream and applies every frame.
func (r *replayer) run(stream []byte) error {
	h := wire.Handler{
		Batch: func(b []shadow.Access) {
			r.records += int64(len(b))
			r.timed("wire.encode", func() { r.enc = wire.AppendBatch(r.enc[:0], b) })
			r.timed("shadow.apply", func() { r.tsink.Apply(b, &r.cur) })
			r.timed("heatmap.apply", func() { r.hm.Apply(b, nil) })
			r.timed("pattern.apply", func() { r.ps.Apply(b, nil) })
		},
		Span: func(name string, at machine.Duration) {
			r.now = at
			r.ps.BeginSpan(name)
		},
		Clock: func(at machine.Duration) { r.now = at },
		Alloc: func(a wire.AllocInfo) {
			_, _ = r.table.Insert(&memsim.Alloc{ID: a.ID, Base: a.Base, Size: a.Size, Kind: a.Kind, Label: a.Label}, a.Fn)
		},
		Free: func(id int) { r.table.MarkFreed(id) },
		Label: func(id int, label string) {
			if e := r.table.FindByID(id); e != nil {
				e.Label = label
			}
		},
		Transfer: func(tr wire.TransferInfo) {
			e := r.table.FindByID(tr.ID)
			if e == nil {
				r.tsink.AddUntracked(1)
				return
			}
			kind := memsim.Read
			if tr.Dir == wire.HostToDevice {
				kind = memsim.Write
				e.TransferredIn += tr.N
			} else {
				e.TransferredOut += tr.N
			}
			if !r.table.Record(machine.CPU, e.Base+memsim.Addr(tr.Off), tr.N, kind) {
				r.tsink.AddUntracked(1)
			}
		},
	}
	return wire.ReadStream(bytes.NewReader(stream), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return h, nil },
	})
}

// report builds the replayed state's report and encodes it.
func (r *replayer) report(title string, w io.Writer) error {
	rep := tableReport(title, r.plat, r.table, r.hm, r.ps)
	return rep.JSON(w)
}

// tableReport assembles the report the aggregator's snapshot gives for a
// shadow table and its heat-map and pattern sinks: summaries, findings,
// heat map and patterns, without timeline attribution.
func tableReport(title string, plat *machine.Platform, table *shadow.Table, hm *record.HeatmapSink, ps *pattern.Sink) diag.Report {
	rep := diag.Report{Title: title}
	for _, e := range table.Entries() {
		rep.Allocs = append(rep.Allocs, diag.Summarize(e))
	}
	rep.Findings = detect.Scan(table.Entries(), detect.DefaultOptions())
	rep.Heatmap = diag.SummarizeHeatmap(hm, 64)
	rep.Patterns = diag.SummarizePatterns(ps, plat.CoalescePenaltyPct)
	rep.Patterns.AnnotateHeatmap(rep.Heatmap)
	return rep
}

// wireDecode times decoding a captured stream with no-op handlers.
func wireDecode(rec *recorder, stream []byte) error {
	start := time.Now()
	err := wire.ReadStream(bytes.NewReader(stream), wire.StreamHandler{
		Hello: func(wire.Hello) (wire.Handler, error) { return wire.Handler{}, nil },
	})
	rec.add("wire.decode", 0, laneReplay, start, time.Now())
	if err != nil {
		return fmt.Errorf("decode captured stream: %w", err)
	}
	return nil
}

// replayLayers replays each captured stream into fresh sinks, re-encoding
// each decoded batch on the way, and times a bare decode of it. It returns
// the layer counters the spans do not carry, and the replayers.
func replayLayers(plat *machine.Platform, rec *recorder, streams [][]byte) ([]*replayer, map[string]float64, error) {
	var reps []*replayer
	var lookups, untracked, records, rows, bytes int64
	for _, st := range streams {
		id := rec.begin("replay", 0, laneReplay)
		r := newReplayer(plat, rec, id)
		err := r.run(st)
		rec.end(id)
		if err != nil {
			return nil, nil, fmt.Errorf("replay captured stream: %w", err)
		}
		if err := wireDecode(rec, st); err != nil {
			return nil, nil, err
		}
		reps = append(reps, r)
		lookups += r.table.Lookups()
		untracked += r.tsink.Untracked()
		records += r.records
		rows += int64(len(r.ps.Rows()))
		bytes += int64(len(st))
	}
	return reps, map[string]float64{
		"shadow.lookups":   float64(lookups),
		"shadow.untracked": float64(untracked),
		"replay.records":   float64(records),
		"pattern.rows":     float64(rows),
		"wire.bytes":       float64(bytes),
	}, nil
}
