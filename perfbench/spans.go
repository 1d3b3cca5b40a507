package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer: the benchmark opens one around
// every call it times, so the per-layer figures derive from spans alone.
// Times are nanoseconds since the recorder's epoch; Parent is 0 for a
// root span. Track is the goroutine lane the span ran on (Chrome tid).
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
	Track  int    `json:"track"`
}

func (s span) dur() int64 { return s.End - s.Start }

// recorder keeps spans in memory until the run ends. It is safe for
// concurrent use; a nil recorder records nothing, so untraced runs call
// the same code with tracing off.
type recorder struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil recorder).
func (r *recorder) begin(name string, parent, track int) int {
	if r == nil {
		return 0
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{ID: len(r.spans) + 1, Parent: parent, Name: name, Start: now, End: -1, Track: track})
	return len(r.spans)
}

// end closes span id.
func (r *recorder) end(id int) {
	if r == nil || id == 0 {
		return
	}
	now := time.Since(r.epoch).Nanoseconds()
	r.mu.Lock()
	r.spans[id-1].End = now
	r.mu.Unlock()
}

// add records an already timed interval as a closed span.
func (r *recorder) add(name string, parent, track int, start, end time.Time) int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.spans = append(r.spans, span{
		ID: len(r.spans) + 1, Parent: parent, Name: name, Track: track,
		Start: start.Sub(r.epoch).Nanoseconds(), End: end.Sub(r.epoch).Nanoseconds(),
	})
	return len(r.spans)
}

// closed returns a copy of the finished spans.
func (r *recorder) closed() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]span, 0, len(r.spans))
	for _, s := range r.spans {
		if s.End >= 0 {
			out = append(out, s)
		}
	}
	return out
}

// sumSeconds totals the durations of the spans with the given names.
func sumSeconds(spans []span, names ...string) float64 {
	var ns int64
	for _, s := range spans {
		for _, n := range names {
			if s.Name == n {
				ns += s.dur()
				break
			}
		}
	}
	return float64(ns) / 1e9
}

// countSpans counts the spans with the given name.
func countSpans(spans []span, name string) int {
	n := 0
	for _, s := range spans {
		if s.Name == name {
			n++
		}
	}
	return n
}

// selfSeconds returns a span's self time: its duration minus the part of
// its interval its child spans cover. Children that overlap each other
// (concurrent goroutines) count once, and a child's part outside the
// parent's interval does not count.
func selfSeconds(spans []span, id int) float64 {
	var parent *span
	type iv struct{ lo, hi int64 }
	var cover []iv
	for i := range spans {
		if spans[i].ID == id {
			parent = &spans[i]
		}
	}
	if parent == nil {
		return 0
	}
	for _, s := range spans {
		if s.Parent != id {
			continue
		}
		lo, hi := max(s.Start, parent.Start), min(s.End, parent.End)
		if lo < hi {
			cover = append(cover, iv{lo, hi})
		}
	}
	sort.Slice(cover, func(i, j int) bool { return cover[i].lo < cover[j].lo })
	var covered, reach int64
	reach = parent.Start
	for _, c := range cover {
		if c.lo > reach {
			reach = c.lo
		}
		if c.hi > reach {
			covered += c.hi - reach
			reach = c.hi
		}
	}
	return float64(parent.dur()-covered) / 1e9
}

// firstSpan returns the id of the first span with the given name, or 0.
func firstSpan(spans []span, name string) int {
	for _, s := range spans {
		if s.Name == name {
			return s.ID
		}
	}
	return 0
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]int `json:"args"`
}

// writeChromeTrace writes the spans of each traced process as Chrome
// trace JSON (one pid per process), loadable in Perfetto next to the
// simulated timeline `xplacer -timeline` exports.
func writeChromeTrace(w io.Writer, procs [][]span) error {
	events := []chromeEvent{}
	for pid, spans := range procs {
		for _, s := range spans {
			events = append(events, chromeEvent{
				Name: s.Name, Ph: "X", Pid: pid + 1, Tid: s.Track,
				Ts: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3,
				Args: map[string]int{"id": s.ID, "parent": s.Parent},
			})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
