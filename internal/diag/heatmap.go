package diag

import (
	"fmt"
	"io"

	"xplacer/internal/machine"
	"xplacer/internal/record"
)

// heatRamp maps bucket intensity to a glyph: '.' is untouched, the ramp
// darkens with the access count relative to the allocation's hottest
// bucket. The graphical analog of the binary '#'/'.' access maps.
const heatRamp = ":-=+*#%@"

// HeatAlloc is one allocation's access-frequency summary: per-device
// totals, the hottest word, and downsampled intensity rows (one glyph per
// bucket of words, scaled to the hottest bucket of the allocation).
type HeatAlloc struct {
	Label       string `json:"label"`
	Words       int    `json:"words"`
	CPUAccesses uint64 `json:"cpuAccesses"`
	GPUAccesses uint64 `json:"gpuAccesses"`
	// HotWord is the index of the most-accessed word (either device);
	// HotCount its combined access count.
	HotWord  int    `json:"hotWord"`
	HotCount uint64 `json:"hotCount"`
	CPURow   string `json:"cpuRow,omitempty"`
	GPURow   string `json:"gpuRow,omitempty"`
	// Pattern is the allocation's dominant access-pattern class, filled in
	// by PatternsSummary.AnnotateHeatmap when a pattern sink observed the
	// run; empty otherwise.
	Pattern string `json:"pattern,omitempty"`
}

// HeatEpoch is one closed epoch's per-allocation totals.
type HeatEpoch struct {
	Epoch int    `json:"epoch"`
	Label string `json:"label"`
	// At is the simulated time the epoch started (clock-rotated sinks).
	At          machine.Duration `json:"atPs,omitempty"`
	CPUAccesses uint64           `json:"cpuAccesses"`
	GPUAccesses uint64           `json:"gpuAccesses"`
}

// HeatmapSummary is the report form of a record.HeatmapSink: the current
// (open) epoch's per-allocation frequency state plus closed-epoch totals.
type HeatmapSummary struct {
	Epoch  int         `json:"epoch"`
	Allocs []HeatAlloc `json:"allocations"`
	// History holds closed-epoch totals, oldest first (empty unless the
	// sink was rotated at interval boundaries).
	History []HeatEpoch `json:"history,omitempty"`
}

// SummarizeHeatmap renders the sink's current state with intensity rows
// of the given width (<=0: 64). Call it with recording quiescent — after
// a flush, typically right after the final diagnostic.
func SummarizeHeatmap(h *record.HeatmapSink, width int) *HeatmapSummary {
	if width <= 0 {
		width = 64
	}
	sum := &HeatmapSummary{Epoch: h.Epoch()}
	for _, ht := range h.Heats() {
		a := HeatAlloc{
			Label:       ht.Label(),
			Words:       ht.Words,
			CPUAccesses: ht.Totals[machine.CPU],
			GPUAccesses: ht.Totals[machine.GPU],
		}
		if a.Label == "" {
			a.Label = fmt.Sprintf("alloc@%#x", uint64(ht.Base))
		}
		for w := 0; w < ht.Words; w++ {
			c := uint64(ht.Counts[machine.CPU][w]) + uint64(ht.Counts[machine.GPU][w])
			if c > a.HotCount {
				a.HotCount, a.HotWord = c, w
			}
		}
		a.CPURow = HeatRow(ht.Counts[machine.CPU], width)
		a.GPURow = HeatRow(ht.Counts[machine.GPU], width)
		sum.Allocs = append(sum.Allocs, a)
		for _, ep := range ht.History {
			sum.History = append(sum.History, HeatEpoch{
				Epoch:       ep.Epoch,
				Label:       a.Label,
				At:          ep.At,
				CPUAccesses: ep.Total[machine.CPU],
				GPUAccesses: ep.Total[machine.GPU],
			})
		}
	}
	return sum
}

// HeatRow downsamples per-word access counts into a single-line intensity
// row of at most width buckets: '.' for an untouched bucket, then the
// ramp ":-=+*#%@" scaled linearly to the hottest bucket of the row.
func HeatRow(counts []uint32, width int) string {
	n := len(counts)
	if n == 0 {
		return ""
	}
	if width <= 0 {
		width = 64
	}
	if n < width {
		width = n
	}
	// Word i falls in bucket i*width/n, so bucket b holds the words
	// [ceil(b*n/width), ceil((b+1)*n/width)): sum each range directly
	// instead of dividing per word.
	buckets := make([]uint64, width)
	start := 0
	for b := range buckets {
		end := ((b+1)*n + width - 1) / width
		var sum uint64
		for _, c := range counts[start:end] {
			sum += uint64(c)
		}
		buckets[b] = sum
		start = end
	}
	var max uint64
	for _, b := range buckets {
		if b > max {
			max = b
		}
	}
	row := make([]byte, width)
	for i, b := range buckets {
		switch {
		case b == 0:
			row[i] = '.'
		default:
			// 1..max maps onto the ramp; the hottest bucket gets the last
			// glyph.
			idx := int((b - 1) * uint64(len(heatRamp)) / max)
			if idx >= len(heatRamp) {
				idx = len(heatRamp) - 1
			}
			row[i] = heatRamp[idx]
		}
	}
	return string(row)
}

// Text writes the heat map in the style of the access maps: one block per
// allocation with per-device intensity rows.
func (s *HeatmapSummary) Text(w io.Writer) {
	fmt.Fprintf(w, "--- access heat map (epoch %d, %d allocations) ---\n", s.Epoch, len(s.Allocs))
	for i := range s.Allocs {
		a := &s.Allocs[i]
		fmt.Fprintf(w, "%s (%d words): %d CPU / %d GPU word accesses", a.Label, a.Words, a.CPUAccesses, a.GPUAccesses)
		if a.HotCount > 0 {
			fmt.Fprintf(w, ", hottest word %d (%dx)", a.HotWord, a.HotCount)
		}
		if a.Pattern != "" {
			fmt.Fprintf(w, ", pattern %s", a.Pattern)
		}
		fmt.Fprintln(w)
		fmt.Fprintf(w, "  CPU %s\n", a.CPURow)
		fmt.Fprintf(w, "  GPU %s\n", a.GPURow)
	}
	if len(s.History) > 0 {
		fmt.Fprintf(w, "closed epochs:\n")
		for _, ep := range s.History {
			at := ""
			if ep.At > 0 {
				at = fmt.Sprintf(" (from %v)", ep.At)
			}
			fmt.Fprintf(w, "  epoch %d %s%s: %d CPU / %d GPU word accesses\n", ep.Epoch, ep.Label, at, ep.CPUAccesses, ep.GPUAccesses)
		}
	}
	fmt.Fprintln(w)
}
