package engine

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestGateLeastLoadedDispatch: a burst of admissions with no releases
// spreads evenly across shards, lowest index first.
func TestGateLeastLoadedDispatch(t *testing.T) {
	g := NewGate(Config{Shards: 4, MaxLivePerShard: 2})
	var shards []int
	for i := 0; i < 8; i++ {
		s, err := g.Admit(context.Background())
		if err != nil {
			t.Fatalf("admit %d: %v", i, err)
		}
		shards = append(shards, s.Shard)
	}
	want := []int{0, 1, 2, 3, 0, 1, 2, 3}
	for i := range want {
		if shards[i] != want[i] {
			t.Fatalf("dispatch order %v, want %v", shards, want)
		}
	}
	st := g.Stats()
	for _, sh := range st.Shards {
		if sh.Live != 2 || sh.Admitted != 2 {
			t.Fatalf("shard %d: live %d admitted %d, want 2/2", sh.Shard, sh.Live, sh.Admitted)
		}
	}
	// Full + no queue: immediate rejection.
	if _, err := g.Admit(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("admit when saturated: %v, want ErrSaturated", err)
	}
	if st := g.Stats(); st.Rejected != 1 {
		t.Fatalf("rejected %d, want 1", st.Rejected)
	}
}

// TestGateReleaseRebalances: releasing a slot makes its shard the
// least-loaded target of the next admission.
func TestGateReleaseRebalances(t *testing.T) {
	g := NewGate(Config{Shards: 2, MaxLivePerShard: 4})
	a, _ := g.Admit(nil)
	b, _ := g.Admit(nil)
	if a.Shard != 0 || b.Shard != 1 {
		t.Fatalf("initial spread %d,%d", a.Shard, b.Shard)
	}
	a.Release()
	a.Release() // idempotent
	c, _ := g.Admit(nil)
	if c.Shard != 0 {
		t.Fatalf("post-release admission went to shard %d, want 0", c.Shard)
	}
	if st := g.Stats(); st.Shards[0].Live != 1 || st.Shards[1].Live != 1 {
		t.Fatalf("double release corrupted live counts: %+v", st.Shards)
	}
}

// TestGateQueueFIFO: queued admissions are dispatched oldest-first as
// slots free up, and the queue bound rejects the overflow.
func TestGateQueueFIFO(t *testing.T) {
	g := NewGate(Config{Shards: 1, MaxLivePerShard: 1, QueueDepth: 2})
	first, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	order := make(chan int, 2)
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := g.Admit(context.Background())
			if err != nil {
				t.Errorf("queued admit %d: %v", i, err)
				return
			}
			order <- i
			// Hold briefly so the second waiter provably waits for THIS
			// release, not the original one.
			time.Sleep(5 * time.Millisecond)
			s.Release()
		}(i)
		// Make waiter i enqueue before waiter i+1.
		waitQueued(t, g, i+1)
	}
	if _, err := g.Admit(context.Background()); !errors.Is(err, ErrSaturated) {
		t.Fatalf("overflow admit: %v, want ErrSaturated", err)
	}
	first.Release()
	wg.Wait()
	if a, b := <-order, <-order; a != 0 || b != 1 {
		t.Fatalf("dispatch order %d,%d, want FIFO 0,1", a, b)
	}
}

// waitQueued spins until the gate reports n queued waiters.
func waitQueued(t *testing.T, g *Gate, n int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for g.Stats().Queued < n {
		if time.Now().After(deadline) {
			t.Fatalf("never reached %d queued waiters", n)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestGateDrainRejectsQueuedWork: Drain fails every queued waiter with
// ErrDraining immediately (no stranded requests), rejects new admissions,
// and returns once live work releases.
func TestGateDrainRejectsQueuedWork(t *testing.T) {
	g := NewGate(Config{Shards: 2, MaxLivePerShard: 1, QueueDepth: 8})
	a, _ := g.Admit(nil)
	b, _ := g.Admit(nil)

	queuedErr := make(chan error, 3)
	for i := 0; i < 3; i++ {
		go func() {
			_, err := g.Admit(context.Background())
			queuedErr <- err
		}()
	}
	waitQueued(t, g, 3)

	done := make(chan error, 1)
	go func() { done <- g.Drain(context.Background()) }()

	// All queued waiters fail promptly, well before the live slots end.
	for i := 0; i < 3; i++ {
		select {
		case err := <-queuedErr:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("queued waiter: %v, want ErrDraining", err)
			}
		case <-time.After(2 * time.Second):
			t.Fatal("queued waiter stranded by Drain")
		}
	}
	// New admissions are refused.
	if _, err := g.Admit(context.Background()); !errors.Is(err, ErrDraining) {
		t.Fatalf("admit while draining: %v, want ErrDraining", err)
	}
	// Drain only returns once the live slots release.
	select {
	case <-done:
		t.Fatal("Drain returned with slots still live")
	case <-time.After(10 * time.Millisecond):
	}
	a.Release()
	b.Release()
	if err := <-done; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// TestGateDrainDeadline: a live slot that never releases bounds Drain by
// its context.
func TestGateDrainDeadline(t *testing.T) {
	g := NewGate(Config{Shards: 1, MaxLivePerShard: 1})
	if _, err := g.Admit(nil); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	if err := g.Drain(ctx); err == nil || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("drain past deadline: %v", err)
	}
}

// TestGateAdmitContextCancel: a waiter abandoning the queue neither
// leaks capacity nor corrupts the queue; a grant racing the cancellation
// is released, never lost.
func TestGateAdmitContextCancel(t *testing.T) {
	g := NewGate(Config{Shards: 1, MaxLivePerShard: 1, QueueDepth: 4})
	slot, _ := g.Admit(nil)
	ctx, cancel := context.WithCancel(context.Background())
	errCh := make(chan error, 1)
	go func() {
		_, err := g.Admit(ctx)
		errCh <- err
	}()
	waitQueued(t, g, 1)
	cancel()
	if err := <-errCh; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled waiter: %v", err)
	}
	if st := g.Stats(); st.Queued != 0 {
		t.Fatalf("cancelled waiter still queued: %+v", st)
	}
	// Capacity intact: release + admit works.
	slot.Release()
	next, err := g.Admit(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	next.Release()
	if st := g.Stats(); st.Shards[0].Live != 0 {
		t.Fatalf("leaked capacity: %+v", st.Shards)
	}
}

// TestGateConcurrentAdmission hammers a small gate from many goroutines
// under -race: the per-shard live bound must never be exceeded, every
// admission must eventually land, the final live and queued counts must
// be zero, and the gate's admitted count must equal the shards' sum.
func TestGateConcurrentAdmission(t *testing.T) {
	const (
		shards   = 4
		maxLive  = 3
		workers  = 32
		perGoros = 25
	)
	g := NewGate(Config{Shards: shards, MaxLivePerShard: maxLive, QueueDepth: workers})
	var over atomic.Bool
	var admitted atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perGoros; i++ {
				s, err := g.Admit(context.Background())
				if err != nil {
					// Saturation is legal under burst; retry.
					if errors.Is(err, ErrSaturated) {
						time.Sleep(200 * time.Microsecond)
						i--
						continue
					}
					t.Errorf("admit: %v", err)
					return
				}
				if live := g.Stats().Shards[s.Shard].Live; live > maxLive {
					over.Store(true)
				}
				admitted.Add(1)
				time.Sleep(50 * time.Microsecond)
				s.Release()
			}
		}()
	}
	wg.Wait()
	if over.Load() {
		t.Fatal("per-shard live bound exceeded")
	}
	if got := admitted.Load(); got != workers*perGoros {
		t.Fatalf("admitted %d, want %d", got, workers*perGoros)
	}
	st := g.Stats()
	var perShard int64
	for _, sh := range st.Shards {
		if sh.Live != 0 {
			t.Fatalf("shard %d still has %d live after all releases", sh.Shard, sh.Live)
		}
		if sh.Admitted == 0 {
			t.Fatalf("shard %d never admitted anything — dispatch is unfair: %+v", sh.Shard, st.Shards)
		}
		perShard += sh.Admitted
	}
	if st.Admitted != perShard {
		t.Fatalf("gate admitted %d, shards admitted %d in sum", st.Admitted, perShard)
	}
	if st.Queued != 0 {
		t.Fatalf("%d still queued after all releases", st.Queued)
	}
}
