package record

import (
	"sync"
	"sync/atomic"

	"xplacer/internal/shadow"
)

// pipeDepth bounds the Buffer batches handed off to an engine's apply
// goroutine and not yet applied. A full Buffer only blocks its owner when
// this many batches are still pending, so a few batches of slack let the
// recorder run ahead through sink-side bursts without parking on every
// handoff (a depth of one parks it per batch and loses the overlap). The
// bound is also the engine's memory constant: at most pipeDepth
// bufferCap-sized slices are ever queued or pooled.
const pipeDepth = 8

// handoff is one Buffer batch waiting for the apply goroutine, with the
// Buffer's cursor it applies under.
type handoff struct {
	batch []shadow.Access
	cur   *Cursor
}

// pipe is the engine's apply pipeline for full Buffers (see Buffer.Record):
// a FIFO of at most pipeDepth batches drained by one apply goroutine,
// which runs while the queue is non-empty and exits when it empties, so
// an idle engine holds no goroutine and needs no Close. Every synchronous
// engine entry point is a barrier (Engine.wait): it returns only once
// every batch handed off before it has been applied.
type pipe struct {
	mu   sync.Mutex
	q    [pipeDepth]handoff
	head int // index of the oldest queued batch (the one being applied)
	n    int // queued batches, the one being applied included
	// running is set while an apply goroutine owns the queue.
	running bool
	// handed and applied count handoffs; a barrier waits for applied to
	// reach handed as of its call, so handoffs made after it cannot
	// starve it.
	handed, applied uint64
	// space wakes a producer blocked on a full queue; done wakes barriers.
	space, done sync.Cond
	// spare pools applied batch slices for Buffers to record into next.
	spare [][]shadow.Access
	// made counts the slices handoffs had to allocate because the pool
	// was empty; the pool bound keeps it at most pipeDepth.
	made int
	// pending mirrors handed - applied for the lock-free idle check that
	// every barrier starts with.
	pending atomic.Int64
}

func (p *pipe) init() {
	p.space.L = &p.mu
	p.done.L = &p.mu
}

// handOff queues batch for the apply goroutine, starting one if none is
// running, and returns an empty slice of capacity bufferCap for the
// caller to record into next. It blocks only while pipeDepth batches are
// pending. The caller must not touch batch or cur again before a barrier.
func (e *Engine) handOff(batch []shadow.Access, cur *Cursor) []shadow.Access {
	p := &e.pipe
	p.mu.Lock()
	for p.n == pipeDepth {
		p.space.Wait()
	}
	p.q[(p.head+p.n)%pipeDepth] = handoff{batch, cur}
	p.n++
	p.handed++
	p.pending.Add(1)
	if !p.running {
		p.running = true
		go e.applyLoop()
	}
	var next []shadow.Access
	if k := len(p.spare); k > 0 {
		next, p.spare[k-1] = p.spare[k-1], nil
		p.spare = p.spare[:k-1]
	} else {
		p.made++
	}
	p.mu.Unlock()
	if next == nil {
		next = make([]shadow.Access, 0, bufferCap)
	}
	return next
}

// applyLoop applies queued batches in handoff order until the queue is
// empty, then exits. A batch stays queued while it applies, so the queue
// bound covers it too.
func (e *Engine) applyLoop() {
	p := &e.pipe
	p.mu.Lock()
	for p.n > 0 {
		h := p.q[p.head]
		p.mu.Unlock()
		e.mu.Lock()
		e.applyLocked(h.batch, h.cur)
		e.mu.Unlock()
		p.mu.Lock()
		p.q[p.head] = handoff{}
		p.head = (p.head + 1) % pipeDepth
		p.n--
		p.applied++
		p.pending.Add(-1)
		if len(p.spare) < pipeDepth {
			p.spare = append(p.spare, h.batch[:0])
		}
		p.space.Signal()
		p.done.Broadcast()
	}
	p.running = false
	p.mu.Unlock()
}

// wait is the pipeline barrier: it returns once every batch handed off
// before the call has been applied. With nothing pending it is one atomic
// load. The caller must not hold e.mu, which the apply goroutine needs.
func (e *Engine) wait() {
	p := &e.pipe
	if p.pending.Load() == 0 {
		return
	}
	p.mu.Lock()
	for target := p.handed; p.applied < target; {
		p.done.Wait()
	}
	p.mu.Unlock()
}
