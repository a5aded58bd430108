package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
)

// Pool is a long-lived bounded worker pool. Unlike Runner.Run, which
// spins workers for one job list and tears them down, a Pool outlives any
// single submission, so a service can keep one pool for its whole
// lifetime and shed load when the queue is full instead of queuing
// unboundedly. Runner.Run itself executes on a throwaway Pool, so the
// batch harness and the serving path share one worker implementation.
var (
	// ErrPoolFull reports a TrySubmit that found the queue at capacity;
	// the caller decides whether to retry, block or shed.
	ErrPoolFull = errors.New("exp: pool queue full")
	// ErrPoolClosed reports a TrySubmit after Close.
	ErrPoolClosed = errors.New("exp: pool closed")
)

// Pool runs submitted functions on a fixed set of worker goroutines that
// drain one buffered channel. Tasks are millisecond-scale simulations, so
// a channel handoff costs nothing measurable next to the work.
type Pool struct {
	// tasks holds the queued tasks; its capacity is the queue depth.
	// TrySubmit sends and Close closes it only under mu, so no send ever
	// meets a closed channel.
	tasks chan func()
	// done is closed once the pool is closed with nothing pending, which
	// lets Wait select on it without a goroutine of its own.
	done chan struct{}

	mu      sync.Mutex
	closed  bool
	pending int // accepted, not yet finished
}

// NewPool starts a pool with the given worker count (<= 0 means
// GOMAXPROCS) and queue depth (clamped to at least 1; a task occupies a
// queue slot from TrySubmit until a worker picks it up).
func NewPool(workers, depth int) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	p := &Pool{tasks: make(chan func(), max(depth, 1)), done: make(chan struct{})}
	for w := 0; w < workers; w++ {
		go p.work()
	}
	return p
}

// TrySubmit enqueues fn without blocking: ErrPoolFull when the queue is
// at capacity, ErrPoolClosed after Close. fn runs exactly once on a
// worker goroutine on success.
func (p *Pool) TrySubmit(fn func()) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return ErrPoolClosed
	}
	select {
	case p.tasks <- fn:
		p.pending++
		return nil
	default:
		return ErrPoolFull
	}
}

// Close stops intake: subsequent TrySubmit calls fail with ErrPoolClosed,
// while already-queued tasks still run and the workers exit once the
// queue is drained. Idempotent.
func (p *Pool) Close() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	close(p.tasks)
	if p.pending == 0 {
		close(p.done)
	}
}

// Wait blocks until the pool is closed and every accepted task has
// finished, or ctx is done, whichever comes first.
func (p *Pool) Wait(ctx context.Context) error {
	select {
	case <-p.done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Load returns, from one consistent snapshot, the number of tasks running
// on workers (never more than the worker count) and the number waiting
// for one.
func (p *Pool) Load() (running, queued int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	// pending only changes under mu, and len(tasks) only drops outside
	// it (a worker's receive), so the difference is exact: tasks
	// received and not yet finished.
	queued = len(p.tasks)
	return p.pending - queued, queued
}

// Pending returns the number of tasks accepted but not yet finished
// (queued plus running).
func (p *Pool) Pending() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.pending
}

// QueueLen returns the number of tasks waiting for a worker.
func (p *Pool) QueueLen() int { return len(p.tasks) }

// work is one worker's loop; it returns once Close has closed the queue
// and the queue is empty.
func (p *Pool) work() {
	for fn := range p.tasks {
		fn()
		p.mu.Lock()
		p.pending--
		if p.pending == 0 && p.closed {
			close(p.done)
		}
		p.mu.Unlock()
	}
}
