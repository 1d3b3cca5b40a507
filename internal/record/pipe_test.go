package record

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"xplacer/internal/machine"
	"xplacer/internal/memsim"
	"xplacer/internal/shadow"
)

// Address ranges of the pipeline tests: buffered records go to gpuBase,
// slot records to cpuBase. Records are 4 bytes at an 8-byte stride, so
// consecutive ones never coalesce.
const (
	gpuBase = memsim.Addr(0x100000)
	cpuBase = memsim.Addr(0x10000000)
)

func gpuAddr(i int) memsim.Addr { return gpuBase + memsim.Addr(8*i) }

// probeSink counts applied records by device, checks that the buffered
// (GPU) records arrive in recording order, and optionally dawdles per
// batch so handed-off batches stay in flight. Its fields are read under
// Engine.Locked, like any sink state.
type probeSink struct {
	delay    time.Duration
	gpu, cpu int
	disorder bool // a GPU record arrived out of recording order
}

func (s *probeSink) Apply(batch []shadow.Access, _ *Cursor) {
	for _, a := range batch {
		if a.Dev == machine.GPU {
			if a.Addr != gpuAddr(s.gpu) {
				s.disorder = true
			}
			s.gpu++
		} else {
			s.cpu++
		}
	}
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
}

// TestPipelineLockedSeesHandedOffBatches pins the barrier in Locked: one
// Buffer writes several queues' worth of records while another goroutine
// records through the slots, and a Locked probe after every handoff must
// see exactly the buffered records handed off so far, in order — no
// fewer (the barrier waited) and no more (the remainder is still private
// to the Buffer).
func TestPipelineLockedSeesHandedOffBatches(t *testing.T) {
	const n = 4*pipeDepth*bufferCap + 300
	sink := &probeSink{delay: 50 * time.Microsecond}
	eng := NewEngine(sink)

	stop := make(chan struct{})
	var slotRecords atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			eng.Record(machine.CPU, cpuBase+memsim.Addr(8*(i%4096)), 4, memsim.Write)
			slotRecords.Add(1)
		}
	}()

	buf := eng.NewBuffer()
	probes := 0
	for i := 0; i < n; i++ {
		buf.Record(machine.GPU, gpuAddr(i), 4, memsim.Read)
		if r := (i + 1) % bufferCap; r == 0 || r == bufferCap/3 {
			handed := (i + 1) / bufferCap * bufferCap
			var got int
			eng.Locked(func() { got = sink.gpu })
			if got != handed {
				close(stop)
				wg.Wait()
				t.Fatalf("after %d records: Locked saw %d buffered records, want the %d handed off", i+1, got, handed)
			}
			probes++
		}
	}
	close(stop)
	wg.Wait()
	buf.Flush()
	eng.Flush()
	eng.Locked(func() {
		if sink.gpu != n || sink.cpu != int(slotRecords.Load()) || sink.disorder {
			t.Errorf("applied %d buffered and %d slot records (out of order: %v), want %d and %d",
				sink.gpu, sink.cpu, sink.disorder, n, slotRecords.Load())
		}
	})
	if c := eng.Counts(); c.Reads != n || c.Writes != slotRecords.Load() {
		t.Errorf("counts %+v, want %d reads and %d writes", c, n, slotRecords.Load())
	}
	if probes < 2*4*pipeDepth {
		t.Fatalf("only %d probes", probes)
	}
}

// TestPipelineWorkerExitsWhenIdle pins the apply goroutine's lifetime: it
// runs only while batches are queued, so once a Flush returns the
// goroutine count falls back to its baseline and an idle engine needs no
// Close.
func TestPipelineWorkerExitsWhenIdle(t *testing.T) {
	base := runtime.NumGoroutine()
	sink := &probeSink{delay: 20 * time.Microsecond}
	eng := NewEngine(sink)
	buf := eng.NewBuffer()
	for round := 0; round < 3; round++ {
		for i := 0; i < 2*pipeDepth*bufferCap; i++ {
			buf.Record(machine.GPU, gpuAddr(round*2*pipeDepth*bufferCap+i), 4, memsim.Read)
		}
		buf.Flush()
		// The barrier returns as the last batch's apply completes; the
		// goroutine then exits on its own.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: %d goroutines after Flush, baseline %d", round, runtime.NumGoroutine(), base)
			}
			runtime.Gosched()
		}
	}
	if sink.disorder {
		t.Error("buffered records applied out of order")
	}
}

// TestPipelineMemoryBound hands off from 256 Buffers at once. Every
// record must arrive exactly once, and the engine must never own more
// batch slices than its queue depth: handoffs draw the next slice from
// the pool the apply goroutine refills, so they allocate at most
// pipeDepth slices in all, however many Buffers hand off.
func TestPipelineMemoryBound(t *testing.T) {
	const buffers, each = 256, 3*bufferCap + 17
	var applied atomic.Int64
	eng := NewEngine(sinkFunc(func(batch []shadow.Access) { applied.Add(int64(len(batch))) }))
	var wg sync.WaitGroup
	for g := 0; g < buffers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := eng.NewBuffer()
			for i := 0; i < each; i++ {
				buf.Record(machine.GPU, gpuAddr(g*each+i), 4, memsim.Write)
			}
			buf.Flush()
		}(g)
	}
	wg.Wait()
	if got := applied.Load(); got != buffers*each {
		t.Errorf("applied %d records, want %d", got, buffers*each)
	}
	if c := eng.Counts(); c.Writes != buffers*each {
		t.Errorf("counted %d writes, want %d", c.Writes, buffers*each)
	}
	eng.pipe.mu.Lock()
	made, spare := eng.pipe.made, len(eng.pipe.spare)
	eng.pipe.mu.Unlock()
	if made > pipeDepth || spare > pipeDepth {
		t.Errorf("handoffs allocated %d slices and pool %d (bound %d each)", made, spare, pipeDepth)
	}
}

// sinkFunc adapts a function to Sink.
type sinkFunc func([]shadow.Access)

func (f sinkFunc) Apply(batch []shadow.Access, _ *Cursor) { f(batch) }

// TestResetWaitsForHandedOffBatches pins Reset as a barrier: batches
// handed off before it still apply (Reset discards only the shared slots),
// and it returns only once they have. A concurrent part then resets over
// a Buffer that keeps handing off; no batch may be lost or applied twice.
func TestResetWaitsForHandedOffBatches(t *testing.T) {
	gate := make(chan struct{})
	sink := &probeSink{}
	eng := NewEngine(sinkFunc(func(batch []shadow.Access) {
		<-gate
		sink.Apply(batch, nil)
	}))

	buf := eng.NewBuffer()
	for i := 0; i < 3*bufferCap; i++ {
		buf.Record(machine.GPU, gpuAddr(i), 4, memsim.Read)
	}
	eng.Record(machine.CPU, cpuBase, 4, memsim.Write) // discarded by Reset
	reset := make(chan int)
	go func() {
		eng.Reset()
		// No Locked here: only Reset's own barrier orders this read
		// after the applies (the race detector checks that it does).
		reset <- sink.gpu
	}()
	close(gate) // the first handed-off batch is blocked in Apply until now
	if got := <-reset; got != 3*bufferCap {
		t.Fatalf("after Reset the sink had %d buffered records, want all %d handed off before it", got, 3*bufferCap)
	}
	eng.Flush()
	if c := eng.Counts(); c != (Counts{}) {
		t.Errorf("counts survived Reset: %+v", c)
	}
	eng.Locked(func() {
		if sink.cpu != 0 {
			t.Errorf("Reset applied %d slot records instead of discarding them", sink.cpu)
		}
	})

	// Concurrent resets while a Buffer hands off.
	const n = 6 * pipeDepth * bufferCap
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 3 * bufferCap; i < 3*bufferCap+n; i++ {
			buf.Record(machine.GPU, gpuAddr(i), 4, memsim.Read)
		}
		buf.Flush()
	}()
	for i := 0; i < 20; i++ {
		eng.Reset()
		runtime.Gosched()
	}
	<-done
	eng.Flush()
	eng.Locked(func() {
		if sink.gpu != 3*bufferCap+n || sink.disorder {
			t.Errorf("applied %d buffered records (out of order: %v), want %d", sink.gpu, sink.disorder, 3*bufferCap+n)
		}
	})
}
