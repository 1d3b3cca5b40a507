package pattern

import (
	"testing"

	"xplacer/internal/memsim"
)

// deltas builds a Note sequence of 8-byte elements starting at 0x100000
// whose successive start-to-start deltas cycle through ds.
func deltas(n int, ds ...int64) []memsim.Addr {
	out := []memsim.Addr{0x100000}
	for i := 0; len(out) < n; i++ {
		out = append(out, memsim.Addr(int64(out[len(out)-1])+ds[i%len(ds)]))
	}
	return out
}

func TestClassify(t *testing.T) {
	far := func(i int) int64 { return 8192 + 512*int64(i) } // > farBytes, all distinct
	var randomWalk []int64
	for i := 0; i < 20; i++ {
		if i%2 == 0 {
			randomWalk = append(randomWalk, far(i))
		} else {
			randomWalk = append(randomWalk, -far(i))
		}
	}
	cases := []struct {
		name   string
		addrs  []memsim.Addr
		class  Class
		stride int64
	}{
		{"too few samples", deltas(minSamples, 8), Unknown, 0},
		{"unit stride", deltas(40, 8), Sequential, 0},
		{"descending unit stride", deltas(40, -8), Sequential, 0},
		{"same word repeated", deltas(40, 0), Sequential, 0},
		{"column walk", deltas(40, 64), Strided, 64},
		{"descending column walk", deltas(40, -256), Strided, -256},
		{"stencil neighborhood", deltas(40, 8, 16, -8, 24, -16), Sequential, 0},
		{"bounded gather", deltas(60, 200, -120, 400, -360, 1000, -800, 72, 2000, -1900), Scatter, 0},
		{"random walk", deltas(60, randomWalk...), Random, 0},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var tr Tracker
			for _, a := range c.addrs {
				tr.Note(a, 8)
			}
			r := tr.Classify()
			if r.Class != c.class || r.Stride != c.stride {
				t.Errorf("Classify = %v stride %d, want %v stride %d", r.Class, r.Stride, c.class, c.stride)
			}
			if r.Samples != int64(len(c.addrs)-1) || r.Elem != 8 {
				t.Errorf("samples %d elem %d, want %d and 8", r.Samples, r.Elem, len(c.addrs)-1)
			}
			if again := tr.Classify(); again != r {
				t.Errorf("Classify is not pure: %+v then %+v", r, again)
			}
		})
	}
}

// TestNoteRunMatchesNotes checks NoteRun's O(1) fold against the count
// Note calls it stands for, including a transition from an earlier access
// and histogram overflow past maxDeltas distinct deltas.
func TestNoteRunMatchesNotes(t *testing.T) {
	type run struct {
		addr   memsim.Addr
		count  int
		stride int64
	}
	cases := []struct {
		name string
		runs []run
	}{
		{"single run", []run{{0x1000, 32, 8}}},
		{"zero stride", []run{{0x1000, 12, 0}}},
		{"chained runs", []run{{0x1000, 10, 8}, {0x9000, 5, 64}, {0x1000, 3, 16}}},
		{"one-element runs", []run{{0x1000, 1, 8}, {0x2000, 1, 8}, {0x1008, 1, 8}}},
		{"overflowing histogram", func() []run {
			var rs []run
			for i := 0; i < 3*maxDeltas; i++ {
				rs = append(rs, run{memsim.Addr(0x1000 + 4096*i*i), 3, int64(8 * (i + 1))})
			}
			return rs
		}()},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			var folded, explicit Tracker
			for _, r := range c.runs {
				folded.NoteRun(r.addr, r.count, r.stride, 8)
				for k := 0; k < r.count; k++ {
					explicit.Note(r.addr+memsim.Addr(int64(k)*r.stride), 8)
				}
			}
			if folded != explicit {
				t.Errorf("NoteRun state %+v, Note state %+v", folded, explicit)
			}
		})
	}
	var tr Tracker
	tr.NoteRun(0x1000, 0, 8, 8)
	if tr != (Tracker{}) {
		t.Error("an empty run changed the tracker")
	}
}

func TestPenaltyPct(t *testing.T) {
	cases := []struct {
		r    Result
		max  int
		want int
	}{
		{Result{Class: Sequential, Elem: 8}, 400, 0},
		{Result{Class: Unknown}, 400, 0},
		{Result{Class: Random}, 0, 0},
		{Result{Class: Strided, Stride: 8, Elem: 8}, 400, 0},    // ratio 1
		{Result{Class: Strided, Stride: 16, Elem: 8}, 310, 10},  // ratio 2: 310*1/31
		{Result{Class: Strided, Stride: -64, Elem: 8}, 310, 70}, // ratio 8: 310*7/31
		{Result{Class: Strided, Stride: 4096, Elem: 8}, 310, 310},
		{Result{Class: Strided, Stride: 64}, 310, 310}, // no element size: ratio 64, saturated
		{Result{Class: Scatter}, 400, 200},
		{Result{Class: Random}, 400, 400},
	}
	for _, c := range cases {
		if got := c.r.PenaltyPct(c.max); got != c.want {
			t.Errorf("%+v.PenaltyPct(%d) = %d, want %d", c.r, c.max, got, c.want)
		}
	}
}

func TestClassString(t *testing.T) {
	for c, want := range map[Class]string{Unknown: "unknown", Sequential: "sequential", Strided: "strided", Scatter: "scatter", Random: "random", Class(99): "unknown"} {
		if got := c.String(); got != want {
			t.Errorf("Class(%d).String() = %q, want %q", c, got, want)
		}
	}
}
