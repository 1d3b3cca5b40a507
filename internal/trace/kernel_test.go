package trace_test

import (
	"bytes"
	"testing"

	"xplacer/internal/cuda"
	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/record"
	"xplacer/internal/shadow"
	"xplacer/internal/trace"
)

// slotOnly hides cuda.BufferedTracer, so a context traced through it
// records kernel accesses through TraceAccess and the per-P slots.
type slotOnly struct {
	cuda.Tracer
	cuda.RangeTracer
}

// kernelContext returns a context traced by a fresh tracer, its kernels
// recording through the tracer's kernel buffer or, with slots, through
// TraceAccess.
func kernelContext(t *testing.T, slots bool) (*cuda.Context, *trace.Tracer) {
	t.Helper()
	ctx := cuda.MustContext(machine.IntelPascal())
	tr := trace.New()
	if slots {
		ctx.SetTracer(slotOnly{tr, tr})
	} else {
		ctx.SetTracer(tr)
	}
	return ctx, tr
}

// transitions sums the words flagged C>G and G>C over every shadow entry,
// freed ones included, and returns the concatenated shadow bytes.
func transitions(tr *trace.Tracer) (cg, gc int, sh []byte) {
	for _, e := range tr.Table().Entries() {
		for _, b := range e.Shadow {
			if b&shadow.ReadCG != 0 {
				cg++
			}
			if b&shadow.ReadGC != 0 {
				gc++
			}
		}
		sh = append(sh, e.Shadow...)
	}
	return cg, gc, sh
}

// TestKernelDrainsBeforeHostOps pins the end-of-body flush: a kernel reads
// one CPU-written word and writes another, and the very next host
// operation touches the same words. The kernel's records must reach the
// table before that operation's, exactly as on the slot path.
func TestKernelDrainsBeforeHostOps(t *testing.T) {
	follow := map[string]func(ctx *cuda.Context, a *memsim.Alloc){
		"host write": func(ctx *cuda.Context, a *memsim.Alloc) {
			v := memsim.Int32s(a)
			v.Store(ctx.Host(), 0, 5)
			v.Load(ctx.Host(), 1)
		},
		"free": func(ctx *cuda.Context, a *memsim.Alloc) {
			if err := ctx.Free(a); err != nil {
				t.Fatal(err)
			}
		},
		"memcpyD2H": func(ctx *cuda.Context, a *memsim.Alloc) {
			ctx.MemcpyD2H(make([]byte, 8), a, 0)
		},
	}
	for name, op := range follow {
		t.Run(name, func(t *testing.T) {
			run := func(slots bool) (int, int, []byte) {
				ctx, tr := kernelContext(t, slots)
				a, err := ctx.MallocManaged(64, "a")
				if err != nil {
					t.Fatal(err)
				}
				v := memsim.Int32s(a)
				v.Store(ctx.Host(), 0, 1)
				ctx.Launch(nil, "k", func(e *cuda.Exec) {
					v.Load(e, 0)     // C>G
					v.Store(e, 1, 2) // GPU-written, so a later CPU read is G>C
				})
				op(ctx, a)
				return transitions(tr)
			}
			cg, gc, sh := run(false)
			slotCG, slotGC, slotSh := run(true)
			if cg != slotCG || gc != slotGC {
				t.Errorf("buffered C>G %d G>C %d, slot path C>G %d G>C %d", cg, gc, slotCG, slotGC)
			}
			if cg != 1 {
				t.Errorf("C>G words = %d, want the kernel's read of word 0", cg)
			}
			wantGC := 1 // the host reads the kernel-written word 1
			if name == "free" {
				wantGC = 0
			}
			if gc != wantGC {
				t.Errorf("G>C words = %d, want %d", gc, wantGC)
			}
			if !bytes.Equal(sh, slotSh) {
				t.Errorf("shadow bytes: buffered %x, slot path %x", sh, slotSh)
			}
		})
	}
}

// TestSetTracerDropsKernelRecorder: once a context switches tracers, its
// kernels record only into the new tracer's table.
func TestSetTracerDropsKernelRecorder(t *testing.T) {
	ctx, first := kernelContext(t, false)
	a, err := ctx.MallocManaged(64, "a")
	if err != nil {
		t.Fatal(err)
	}
	v := memsim.Int32s(a)
	ctx.Launch(nil, "k1", func(e *cuda.Exec) { v.Load(e, 0) })

	second := trace.New()
	second.TraceAlloc(a)
	ctx.SetTracer(second)
	ctx.Launch(nil, "k2", func(e *cuda.Exec) {
		v.Load(e, 1)
		e.TraceRange(memsim.Read, a, 8, 4, 4, 4)
	})
	if got := first.Stats().Reads; got != 1 {
		t.Errorf("first tracer counted %d reads, want only k1's", got)
	}
	if sh := first.Table().Entries()[0].Shadow; sh[1] != 0 || sh[2] != 0 {
		t.Errorf("k2 reached the first tracer's table: words 1-2 = %#x %#x", sh[1], sh[2])
	}
	if got := second.Stats().Reads; got != 5 {
		t.Errorf("second tracer counted %d reads, want k2's 5", got)
	}
}

// TestKernelBufferFillsInProgramOrder runs a kernel that makes several
// buffers' worth of non-coalescing records (scattered words, alternating
// read/write/read), so the buffer drains mid-body, after host
// initialization that is still in the shared slots. Every drain must keep
// program order: each word ends up C>G (first read) and G>G (read after
// the kernel's own write), exactly as on the slot path.
func TestKernelBufferFillsInProgramOrder(t *testing.T) {
	const words = 1500
	var batches int
	run := func(slots bool) []byte {
		ctx, tr := kernelContext(t, slots)
		cs := &countingSink{}
		tr.AddSink(cs)
		a, err := ctx.MallocManaged(words*4, "a")
		if err != nil {
			t.Fatal(err)
		}
		v := memsim.Int32s(a)
		for i := int64(0); i < words; i++ {
			v.Store(ctx.Host(), i, int32(i))
		}
		before := cs.batches
		ctx.Launch(nil, "k", func(e *cuda.Exec) {
			for k := int64(0); k < words; k++ {
				i := k * 7 % words // 7 is coprime to words: a permutation
				v.Store(e, i, v.Load(e, i)+1)
				v.Load(e, i)
			}
		})
		if !slots {
			batches = cs.batches - before
		}
		return append([]byte(nil), tr.Table().Entries()[0].Shadow...)
	}
	got, want := run(false), run(true)
	if batches < 4 {
		t.Fatalf("kernel drained in %d batches; the test needs mid-body drains", batches)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("buffered shadow differs from the slot path")
	}
	const all = shadow.CPUWrote | shadow.GPUWrote | shadow.LastWriterGPU | shadow.ReadCG | shadow.ReadGG
	for i, b := range got {
		if b != all {
			t.Fatalf("word %d: shadow %#08b, want %#08b", i, b, all)
		}
	}
}

// countingSink counts the batches drained into it.
type countingSink struct{ batches int }

func (c *countingSink) Apply([]shadow.Access, *record.Cursor) { c.batches++ }

// TestKernelAccessesLandInLaunchEpoch pins how clock-rotated heat maps
// attribute kernels: a kernel's records drain when its body returns, so
// all of its accesses — mid-body buffer drains included — land in the
// epoch holding its launch time, even when the next flush point comes
// epochs later.
func TestKernelAccessesLandInLaunchEpoch(t *testing.T) {
	const words = 1500
	const every = 10 * machine.Microsecond
	ctx, tr := kernelContext(t, false)
	a, err := ctx.MallocManaged(words*4, "a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ctx.MallocManaged(64, "b")
	if err != nil {
		t.Fatal(err)
	}
	hm := record.NewHeatmapSink(tr.Table())
	tr.AddSink(hm)
	hm.RotateOnClock(every, ctx.Now)
	va, vb := memsim.Int32s(a), memsim.Int32s(b)
	for i := int64(0); i < words; i++ {
		va.Store(ctx.Host(), i, int32(i))
	}
	ctx.Host().Work(25 * machine.Microsecond)

	launch := ctx.Now()
	ctx.Launch(nil, "k", func(e *cuda.Exec) {
		for k := int64(0); k < words; k++ {
			va.Load(e, k*7%words) // scattered: no coalescing, several buffer drains
		}
	})
	// The next flush point is several epochs after the launch.
	ctx.Host().Work(35 * machine.Microsecond)
	vb.Store(ctx.Host(), 0, 1)
	ctx.Host().Work(20 * machine.Microsecond)
	tr.Flush()
	hm.Rotate()

	var heat *record.Heat
	for _, h := range hm.Heats() {
		if h.Base == a.Base {
			heat = h
		}
	}
	if heat == nil {
		t.Fatal("no heat map for a")
	}
	// The epoch holding the launch is the latest one starting at or
	// before it.
	home := -1
	for i, ep := range heat.History {
		if ep.At <= launch {
			home = i
		}
	}
	if home < 0 {
		t.Fatalf("no epoch holds the launch at %v: %+v", launch, heat.History)
	}
	for i, ep := range heat.History {
		got, want := ep.Total[machine.GPU], uint64(0)
		if i == home {
			want = words
		}
		if got != want {
			t.Errorf("epoch %d (from %v): %d GPU word accesses, want %d (launch at %v)", ep.Epoch, ep.At, got, want, launch)
		}
	}
}
