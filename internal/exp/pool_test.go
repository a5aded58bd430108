package exp

import (
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestPoolRunsEveryTask(t *testing.T) {
	p := NewPool(4, 32)
	var n atomic.Int64
	for i := 0; i < 32; i++ {
		if err := p.TrySubmit(func() { n.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	if err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := n.Load(); got != 32 {
		t.Fatalf("ran %d tasks, want 32", got)
	}
	if p.Pending() != 0 {
		t.Fatalf("pending = %d after drain, want 0", p.Pending())
	}
}

func TestPoolShedsWhenFull(t *testing.T) {
	// One worker parked on a gate plus a single queue slot: the third
	// submission must shed instead of blocking or queuing unboundedly.
	gate := make(chan struct{})
	p := NewPool(1, 1)
	if err := p.TrySubmit(func() { <-gate }); err != nil {
		t.Fatal(err)
	}
	// The worker may not have picked the first task up yet; wait until
	// the queue slot is free so the occupancy below is deterministic.
	deadline := time.Now().Add(2 * time.Second)
	for p.QueueLen() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("worker never picked up the gated task")
		}
		time.Sleep(time.Millisecond)
	}
	if err := p.TrySubmit(func() {}); err != nil {
		t.Fatalf("queue slot submit: %v", err)
	}
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolFull) {
		t.Fatalf("over-capacity submit: got %v, want ErrPoolFull", err)
	}
	if got := p.Pending(); got != 2 {
		t.Fatalf("pending = %d, want 2", got)
	}
	close(gate)
	p.Close()
	if err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestPoolClosedRejectsButDrains(t *testing.T) {
	gate := make(chan struct{})
	var ran atomic.Bool
	p := NewPool(1, 4)
	p.TrySubmit(func() { <-gate })
	p.TrySubmit(func() { ran.Store(true) })
	p.Close()
	p.Close() // idempotent
	if err := p.TrySubmit(func() {}); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("submit after close: got %v, want ErrPoolClosed", err)
	}

	// Wait must respect its context while the gate is held...
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := p.Wait(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("gated wait: got %v, want DeadlineExceeded", err)
	}
	// ...and the queued task must still run once the gate opens.
	close(gate)
	if err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if !ran.Load() {
		t.Fatal("task queued before Close never ran")
	}
}

// TestPoolWaitLeaksNothing exercises the bug where every Wait whose ctx
// was canceled before Close parked a goroutine on workers.Wait() forever:
// after many canceled Waits plus a full close+drain, the process must be
// back to its starting goroutine count.
func TestPoolWaitLeaksNothing(t *testing.T) {
	before := runtime.NumGoroutine()
	p := NewPool(4, 8)
	for i := 0; i < 25; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		if err := p.Wait(ctx); !errors.Is(err, context.Canceled) {
			t.Fatalf("canceled wait %d: got %v, want context.Canceled", i, err)
		}
	}
	var n atomic.Int64
	for i := 0; i < 8; i++ {
		if err := p.TrySubmit(func() { n.Add(1) }); err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
	}
	p.Close()
	if err := p.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if n.Load() != 8 {
		t.Fatalf("ran %d tasks, want 8", n.Load())
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after close+drain",
				before, runtime.NumGoroutine())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestPoolCloseRace submits from many goroutines while another closes
// the pool: no submit may panic (a send on the closed queue), every
// accepted task runs exactly once, no refused task runs, and every
// refusal is ErrPoolClosed or ErrPoolFull.
func TestPoolCloseRace(t *testing.T) {
	const submitters, perSubmitter = 8, 50
	for round := 0; round < 20; round++ {
		p := NewPool(2, 4)
		var runs [submitters * perSubmitter]atomic.Int32
		var accepted [submitters * perSubmitter]bool
		start := make(chan struct{})
		var wg sync.WaitGroup
		for g := 0; g < submitters; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				<-start
				for i := 0; i < perSubmitter; i++ {
					id := g*perSubmitter + i
					err := p.TrySubmit(func() { runs[id].Add(1) })
					switch {
					case err == nil:
						accepted[id] = true
					case errors.Is(err, ErrPoolClosed), errors.Is(err, ErrPoolFull):
					default:
						t.Errorf("submit %d: unexpected error %v", id, err)
					}
				}
			}(g)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			runtime.Gosched()
			p.Close()
		}()
		close(start)
		wg.Wait()
		if err := p.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
		for id := range runs {
			want := int32(0)
			if accepted[id] {
				want = 1
			}
			if got := runs[id].Load(); got != want {
				t.Fatalf("round %d task %d: ran %d times, accepted=%v", round, id, got, accepted[id])
			}
		}
	}
}
