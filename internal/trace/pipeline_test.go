package trace_test

import (
	"bytes"
	"slices"
	"testing"
	"time"

	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/wire"
)

// TestClockSinksUnderPipelinedKernel runs a kernel whose kernel buffer
// fills many times over — more records than the engine's apply queue
// holds, none coalescing — with a clock-rotated heat map and a clocked
// stream sink attached. The full batches apply on the engine's apply
// goroutine while the body still runs, reading the simulated clock
// there. The clock does not move inside a body, so every access must
// land in the launch epoch and the stream must carry exactly the clock
// frames of the slot path, whose sweeps apply inline on the body's
// goroutine. A slow sink keeps the apply queue full, so batches are still
// pending when the body returns. Run with -race: the
// apply goroutine reads the clock concurrently with the body.
func TestClockSinksUnderPipelinedKernel(t *testing.T) {
	const words = 12000 // 12000 records per launch, 7 is coprime to it
	const every = 10 * machine.Microsecond
	type outcome struct {
		launch machine.Duration
		clocks []machine.Duration
		epochs []record.EpochTotals
	}
	run := func(slots bool) outcome {
		var o outcome
		ctx, tr := kernelContext(t, slots)
		var stream bytes.Buffer
		ss, err := wire.NewStreamSink(&stream, wire.Config{
			Hello: wire.Hello{Tenant: "test", Process: "pipeline"},
			Clock: ctx.Now,
		})
		if err != nil {
			t.Fatal(err)
		}
		tr.EnableStream(ss)
		a, err := ctx.MallocManaged(words*4, "a")
		if err != nil {
			t.Fatal(err)
		}
		hm := record.NewHeatmapSink(tr.Table())
		tr.AddSink(hm)
		hm.RotateOnClock(every, ctx.Now)
		tr.AddSink(slowSink{})
		v := memsim.Int32s(a)
		// Initialize by one transfer: element stores would fill the
		// shared slots, whose sweep points depend on which P records.
		ctx.MemcpyH2D(a, 0, make([]byte, words*4))
		ctx.Host().Work(25 * machine.Microsecond)
		o.launch = ctx.Now()
		ctx.Launch(nil, "k", func(e *cuda.Exec) {
			for k := int64(0); k < words; k++ {
				v.Load(e, k*7%words)
			}
		})
		ctx.Host().Work(35 * machine.Microsecond)
		v.Store(ctx.Host(), 0, 1)
		ctx.Host().Work(20 * machine.Microsecond)
		tr.Flush()
		hm.Rotate()
		if err := ss.Close(); err != nil {
			t.Fatal(err)
		}
		err = wire.ReadStream(bytes.NewReader(stream.Bytes()), wire.StreamHandler{
			Hello: func(wire.Hello) (wire.Handler, error) {
				return wire.Handler{Clock: func(at machine.Duration) { o.clocks = append(o.clocks, at) }}, nil
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		for _, h := range hm.Heats() {
			if h.Base == a.Base {
				o.epochs = h.History
			}
		}
		return o
	}
	piped, inline := run(false), run(true)
	if !slices.Equal(piped.clocks, inline.clocks) {
		t.Errorf("clock frames differ:\npipelined %v\nslot path %v", piped.clocks, inline.clocks)
	}
	home := -1
	for i, ep := range piped.epochs {
		if ep.At <= piped.launch {
			home = i
		}
	}
	if home < 0 {
		t.Fatalf("no epoch holds the launch at %v: %+v", piped.launch, piped.epochs)
	}
	for i, ep := range piped.epochs {
		got, want := ep.Total[machine.GPU], uint64(0)
		if i == home {
			want = words
		}
		if got != want {
			t.Errorf("epoch %d (from %v): %d GPU word accesses, want %d (launch at %v)", ep.Epoch, ep.At, got, want, piped.launch)
		}
	}
}

// slowSink makes every batch apply take a while, so the engine's apply
// goroutine falls behind the recording one.
type slowSink struct{}

func (slowSink) Apply([]shadow.Access, *record.Cursor) { time.Sleep(50 * time.Microsecond) }
