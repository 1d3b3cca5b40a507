package pattern

import (
	"sort"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
)

// Stream is one (kernel span, allocation, device) access stream and its
// accumulated structure.
type Stream struct {
	Span    int
	Entry   *shadow.Entry
	Dev     machine.Device
	Tracker Tracker
}

// SpanInfo describes one kernel span the sink attributed accesses to.
// Span 0 is the pre-first-kernel window; host accesses recorded after a
// launch attribute to that launch's span (the device column tells them
// apart).
type SpanInfo struct {
	Seq  int
	Name string
	// Start is the simulated time the span began, when the sink has a
	// clock (SetClock); 0 otherwise.
	Start machine.Duration
}

// streamSlot is one shadow entry's streams in the newest span it was
// accessed in. Apply only ever attributes to the current span, so a slot
// whose span is older is simply restarted; older spans' streams live on
// in Sink.order only.
type streamSlot struct {
	span int
	devs [machine.NumDevices]*Stream
}

// streamKey identifies a stream of a device outside machine's device
// range, which only a malformed wire stream produces; such streams are
// kept in a map beside the dense slots.
type streamKey struct {
	span int
	e    *shadow.Entry
	dev  machine.Device
}

// Sink folds drained access batches into per-(span, allocation, device)
// Trackers. It implements record.Sink and rides the engine's existing
// drain path: scalar batches cost one delta update per access, RLE range
// records one O(1) NoteRun per record — zero new work on the per-access
// hot path. Records the engine's table pass already resolved
// (record.Cursor.Resolved) are not looked up again, and per-entry stream
// state lives in slots indexed by shadow.Entry.Index. Apply runs under
// the engine lock; BeginSpan and the report accessors must be called
// inside Engine.Locked or with recording quiescent.
type Sink struct {
	table *shadow.Table
	last  *shadow.Entry // find cache for records the cursor does not pin
	cur   *Stream       // stream cursor: the common same-stream case is one compare
	slots []streamSlot  // by shadow.Entry.Index
	odd   map[streamKey]*Stream
	order []*Stream
	spans []SpanInfo
	now   func() machine.Duration
}

// NewSink observes accesses resolved against t, starting in span 0 (the
// pre-first-kernel window).
func NewSink(t *shadow.Table) *Sink {
	return &Sink{
		table: t,
		spans: []SpanInfo{{Seq: 0, Name: "(start)"}},
	}
}

// SetClock attaches the simulated clock; subsequent BeginSpan calls stamp
// their span's start time. now is sampled once per span, never per access.
func (s *Sink) SetClock(now func() machine.Duration) { s.now = now }

// BeginSpan opens a new attribution span (a kernel launch). The caller
// must flush the engine first and invoke this under Engine.Locked, so
// every access recorded before the launch lands in the previous span —
// this is what "attributed via the timeline clock" means operationally:
// the launch is a drain point, and the clock is sampled at it.
func (s *Sink) BeginSpan(name string) {
	sp := SpanInfo{Seq: len(s.spans), Name: name}
	if s.now != nil {
		sp.Start = s.now()
	}
	s.spans = append(s.spans, sp)
	s.cur = nil
}

// Apply implements record.Sink.
func (s *Sink) Apply(batch []shadow.Access, cur *record.Cursor) {
	span := len(s.spans) - 1
	res := cur.Resolved(s.table, len(batch))
	for i := range batch {
		a := &batch[i]
		var e *shadow.Entry
		if res != nil {
			e = res[i]
		}
		if a.Count > 1 {
			s.applyRange(a, span, e)
			continue
		}
		if e == nil {
			if e = s.find(a.Addr); e == nil {
				continue // untracked: the TableSink tallies these
			}
		}
		s.streamOf(span, e, a.Dev).Tracker.Note(a.Addr, int64(a.Size))
	}
}

// find resolves addr through the sink's own last-entry cache and the
// table; nil when addr is untracked.
func (s *Sink) find(addr memsim.Addr) *shadow.Entry {
	e := s.last
	if e == nil || e.Freed || !e.Contains(addr) {
		if e = s.table.Find(addr); e != nil {
			s.last = e
		}
	}
	return e
}

// applyRange folds one run-length-encoded sweep, split at entry
// boundaries exactly like the other table-backed sinks. pinned, when
// non-nil, is the entry holding every element start (resolved by the
// table pass), so the run folds whole without a lookup.
func (s *Sink) applyRange(a *shadow.Access, span int, pinned *shadow.Entry) {
	count := int(a.Count)
	stride := int64(a.Stride)
	if pinned != nil {
		s.streamOf(span, pinned, a.Dev).Tracker.NoteRun(a.Addr, count, stride, int64(a.Size))
		return
	}
	addr := a.Addr
	for k := 0; k < count; {
		e := s.find(addr)
		if e == nil {
			k++ // untracked element: the TableSink tallies these
			addr += memsim.Addr(stride)
			continue
		}
		run := count - k
		if stride > 0 {
			// Longest prefix whose element starts stay inside e.
			if r := int((int64(e.End-addr)-1)/stride) + 1; r < run {
				run = r
			}
		}
		s.streamOf(span, e, a.Dev).Tracker.NoteRun(addr, run, stride, int64(a.Size))
		k += run
		addr += memsim.Addr(int64(run) * stride)
	}
}

// streamOf returns (creating on first touch) the stream of (span, e, dev).
func (s *Sink) streamOf(span int, e *shadow.Entry, dev machine.Device) *Stream {
	if c := s.cur; c != nil && c.Span == span && c.Entry == e && c.Dev == dev {
		return c
	}
	var st *Stream
	if dev < machine.NumDevices {
		i := e.Index()
		if i >= len(s.slots) {
			s.slots = append(s.slots, make([]streamSlot, i+1-len(s.slots))...)
		}
		sl := &s.slots[i]
		if sl.span != span {
			*sl = streamSlot{span: span}
		}
		if st = sl.devs[dev]; st == nil {
			st = s.newStream(span, e, dev)
			sl.devs[dev] = st
		}
	} else {
		k := streamKey{span: span, e: e, dev: dev}
		if st = s.odd[k]; st == nil {
			if s.odd == nil {
				s.odd = map[streamKey]*Stream{}
			}
			st = s.newStream(span, e, dev)
			s.odd[k] = st
		}
	}
	s.cur = st
	return st
}

func (s *Sink) newStream(span int, e *shadow.Entry, dev machine.Device) *Stream {
	st := &Stream{Span: span, Entry: e, Dev: dev}
	s.order = append(s.order, st)
	return st
}

// Row is one classified stream for reporting.
type Row struct {
	SpanSeq int
	Span    string
	Start   machine.Duration
	AllocID int
	Alloc   string
	Dev     machine.Device
	Result  Result
}

// Rows classifies every stream and returns the rows in (span, allocation,
// device) order. Call inside Engine.Locked or with recording quiescent;
// flush the engine first so buffered accesses are included.
func (s *Sink) Rows() []Row {
	rows := make([]Row, 0, len(s.order))
	for _, st := range s.order {
		sp := s.spans[st.Span]
		rows = append(rows, Row{
			SpanSeq: st.Span,
			Span:    sp.Name,
			Start:   sp.Start,
			AllocID: st.Entry.AllocID,
			Alloc:   st.Entry.Label,
			Dev:     st.Dev,
			Result:  st.Tracker.Classify(),
		})
	}
	sort.SliceStable(rows, func(i, j int) bool {
		if rows[i].SpanSeq != rows[j].SpanSeq {
			return rows[i].SpanSeq < rows[j].SpanSeq
		}
		if rows[i].AllocID != rows[j].AllocID {
			return rows[i].AllocID < rows[j].AllocID
		}
		return rows[i].Dev < rows[j].Dev
	})
	return rows
}

// Spans returns a copy of the spans seen so far, in sequence order.
func (s *Sink) Spans() []SpanInfo { return append([]SpanInfo(nil), s.spans...) }
