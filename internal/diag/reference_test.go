package diag

import (
	"fmt"
	"math/rand"
	"testing"

	"xplacer/internal/detect"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// refHeatRow is HeatRow's original definition — one division per word to
// find its bucket — kept as the reference the bucket-range sums must
// match.
func refHeatRow(counts []uint32, width int) string {
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
	buckets := make([]uint64, width)
	for i, c := range counts {
		buckets[i*width/n] += uint64(c)
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
			idx := int((b - 1) * uint64(len(heatRamp)) / max)
			if idx >= len(heatRamp) {
				idx = len(heatRamp) - 1
			}
			row[i] = heatRamp[idx]
		}
	}
	return string(row)
}

func TestHeatRowMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	sizes := []int{1, 2, 3, 7, 63, 64, 65, 100, 127, 128, 129, 1000, 4097}
	widths := []int{-1, 0, 1, 2, 3, 7, 16, 63, 64, 65, 200}
	for _, n := range sizes {
		for _, w := range widths {
			counts := make([]uint32, n)
			for i := range counts {
				switch rng.Intn(3) {
				case 0: // untouched
				case 1:
					counts[i] = uint32(rng.Intn(4))
				default:
					counts[i] = rng.Uint32() >> uint(rng.Intn(32))
				}
			}
			if got, want := HeatRow(counts, w), refHeatRow(counts, w); got != want {
				t.Errorf("n=%d width=%d: HeatRow %q, reference %q", n, w, got, want)
			}
		}
	}
}

// refSummarize is Summarize's original per-byte flag loop.
func refSummarize(e *shadow.Entry) AllocSummary {
	s := AllocSummary{
		Label:          e.Label,
		AllocID:        e.AllocID,
		Kind:           e.Kind,
		Words:          e.Words(),
		Freed:          e.Freed,
		Alternating:    detect.Alternating(e),
		TransferredIn:  e.TransferredIn,
		TransferredOut: e.TransferredOut,
	}
	if s.Label == "" {
		s.Label = fmt.Sprintf("alloc#%d", e.AllocID)
	}
	for _, b := range e.Shadow {
		if b&shadow.CPUWrote != 0 {
			s.WriteC++
		}
		if b&shadow.GPUWrote != 0 {
			s.WriteG++
		}
		if b&shadow.ReadCC != 0 {
			s.ReadCC++
		}
		if b&shadow.ReadCG != 0 {
			s.ReadCG++
		}
		if b&shadow.ReadGC != 0 {
			s.ReadGC++
		}
		if b&shadow.ReadGG != 0 {
			s.ReadGG++
		}
	}
	s.TouchedWords, s.DensityPct = detect.Density(e)
	return s
}

func TestSummarizeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 200; trial++ {
		words := rng.Intn(3000)
		e := &shadow.Entry{
			AllocID: trial, Kind: memsim.Managed, Shadow: make([]byte, words),
			Freed: trial%5 == 0, TransferredIn: int64(trial), TransferredOut: int64(2 * trial),
		}
		if trial%3 == 0 {
			e.Label = "xs"
		}
		// Runs of repeated values, the shape real shadow memory has, plus
		// arbitrary bytes.
		for i := 0; i < words; {
			v := byte(rng.Intn(256))
			n := 1 + rng.Intn(64)
			for ; n > 0 && i < words; n, i = n-1, i+1 {
				e.Shadow[i] = v
			}
		}
		got, want := Summarize(e), refSummarize(e)
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("trial %d (%d words): Summarize %+v, reference %+v", trial, words, got, want)
		}
	}
}
