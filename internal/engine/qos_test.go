package engine

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

// TestGateWFQFairness: a saturating heavy family never starves a light
// one — under a 9:1 weight split the light class still lands its weight
// share of the grants, FIFO within each class.
func TestGateWFQFairness(t *testing.T) {
	g := NewGate(Config{
		Shards: 1, MaxLivePerShard: 1, QueueDepth: 64,
		Weights: map[string]int{"heavy": 9, "light": 1},
	})
	blocker, err := g.AdmitClass(context.Background(), "heavy")
	if err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var order []string
	var wg sync.WaitGroup
	// Enqueue one at a time (waiting for the queue to grow) so the
	// enqueue order — and with it the virtual start tags — is
	// deterministic.
	queued := 0
	admit := func(class string) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := g.AdmitClass(context.Background(), class)
			if err != nil {
				t.Errorf("admit %s: %v", class, err)
				return
			}
			mu.Lock()
			order = append(order, class)
			mu.Unlock()
			s.Release()
		}()
		queued++
		waitQueued(t, g, queued)
	}
	for i := 0; i < 27; i++ {
		admit("heavy")
	}
	for i := 0; i < 3; i++ {
		admit("light")
	}
	blocker.Release()
	wg.Wait()

	if len(order) != 30 {
		t.Fatalf("granted %d of 30", len(order))
	}
	light := func(prefix int) int {
		n := 0
		for _, c := range order[:prefix] {
			if c == "light" {
				n++
			}
		}
		return n
	}
	// Weight share 1/10: the light class holds it in every grant window
	// instead of waiting out the 27 queued heavy admissions.
	if got := light(10); got < 1 {
		t.Fatalf("light got %d of the first 10 grants, want >= 1 (order %v)", got, order)
	}
	if got := light(20); got < 2 {
		t.Fatalf("light got %d of the first 20 grants, want >= 2 (order %v)", got, order)
	}
	if got := light(30); got != 3 {
		t.Fatalf("light got %d of 30 grants, want all 3", got)
	}
	st := g.Stats()
	if st.Rejected != 0 || st.Queued != 0 {
		t.Fatalf("stats %+v, want no rejections and an empty queue", st)
	}
}

// TestGateFastPathRecordsWait: an uncontended admission still lands its
// (near-zero) queue wait in the class and aggregate windows, so the
// percentiles cover ALL admissions, and its release records the
// admission-to-done latency.
func TestGateFastPathRecordsWait(t *testing.T) {
	g := NewGate(Config{Shards: 1, MaxLivePerShard: 2})
	s, err := g.AdmitClass(context.Background(), "tpch")
	if err != nil {
		t.Fatal(err)
	}
	st := g.Stats()
	if st.QueueWait.Samples != 1 {
		t.Fatalf("aggregate wait samples %d, want 1 (fast path must record)", st.QueueWait.Samples)
	}
	if len(st.Classes) != 1 || st.Classes[0].Class != "tpch" {
		t.Fatalf("classes %+v, want exactly tpch", st.Classes)
	}
	cs := st.Classes[0]
	if cs.Admitted != 1 || cs.QueueWait.Samples != 1 || cs.QueueWait.P99 > time.Second {
		t.Fatalf("class stats %+v, want one ~0 wait sample", cs)
	}
	if cs.Latency.Samples != 0 {
		t.Fatalf("latency samples %d before release", cs.Latency.Samples)
	}
	s.Release()
	if cs := g.Stats().Classes[0]; cs.Latency.Samples != 1 {
		t.Fatalf("latency samples %d after release, want 1", cs.Latency.Samples)
	}
}

// TestGateDeadlineShed: once observed waits say the queue costs more
// than the request's remaining deadline, the admission is shed with
// ErrDeadlineShed — without ever occupying a queue slot — while a
// request with budget still queues.
func TestGateDeadlineShed(t *testing.T) {
	g := NewGate(Config{Shards: 1, MaxLivePerShard: 1, QueueDepth: 8, DeadlineAdmission: true})
	blocker, err := g.AdmitClass(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	// Prime the class window with a real contended wait: before any
	// evidence the predictor is deliberately optimistic and never sheds.
	primed := make(chan error, 1)
	go func() {
		s, err := g.AdmitClass(context.Background(), "f")
		if err == nil {
			s.Release()
		}
		primed <- err
	}()
	waitQueued(t, g, 1)
	time.Sleep(30 * time.Millisecond)
	blocker.Release()
	if err := <-primed; err != nil {
		t.Fatal(err)
	}

	// Saturate again and ask with a 2ms budget: predicted (~30ms) wins.
	blocker2, err := g.AdmitClass(context.Background(), "f")
	if err != nil {
		t.Fatal(err)
	}
	defer blocker2.Release()
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Millisecond)
	defer cancel()
	_, err = g.AdmitClass(ctx, "f")
	if !errors.Is(err, ErrDeadlineShed) {
		t.Fatalf("short-deadline admit: %v, want ErrDeadlineShed", err)
	}
	var shed *DeadlineShedError
	if !errors.As(err, &shed) {
		t.Fatalf("error %T does not carry the shed details", err)
	}
	if shed.Class != "f" || shed.Predicted < 20*time.Millisecond || shed.Remaining > 2*time.Millisecond {
		t.Fatalf("shed details %+v", shed)
	}
	st := g.Stats()
	if st.Shed != 1 || st.Queued != 0 {
		t.Fatalf("shed %d queued %d, want 1 and 0 (shed requests must not occupy the queue)", st.Shed, st.Queued)
	}
	if cs := st.Classes[0]; cs.Shed != 1 {
		t.Fatalf("class shed %d, want 1", cs.Shed)
	}

	// A roomy deadline still queues: shedding is a refusal of doomed
	// work, not a ban on deadlines.
	ok := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s, err := g.AdmitClass(ctx, "f")
		if err == nil {
			s.Release()
		}
		ok <- err
	}()
	waitQueued(t, g, 1)
	blocker2.Release()
	if err := <-ok; err != nil {
		t.Fatalf("roomy-deadline admit: %v", err)
	}
}

// TestGateDrainAcrossClasses: a drain under multi-class saturation fails
// every queued waiter of every class with ErrDraining at once, refuses
// new admissions of any class, and returns once the live slots release —
// nobody strands and the queue ends empty.
func TestGateDrainAcrossClasses(t *testing.T) {
	g := NewGate(Config{
		Shards: 2, MaxLivePerShard: 1, QueueDepth: 32,
		Weights: map[string]int{"a": 4, "b": 2},
	})
	var blockers []*Slot
	for i := 0; i < 2; i++ {
		s, err := g.AdmitClass(context.Background(), "a")
		if err != nil {
			t.Fatal(err)
		}
		blockers = append(blockers, s)
	}

	results := make(chan error, 12)
	classes := []string{"a", "b", "c"}
	for i := 0; i < 12; i++ {
		go func(class string) {
			s, err := g.AdmitClass(context.Background(), class)
			if err == nil {
				s.Release()
			}
			results <- err
		}(classes[i%3])
	}
	waitQueued(t, g, 12)

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- g.Drain(ctx)
	}()
	for i := 0; i < 12; i++ {
		select {
		case err := <-results:
			if !errors.Is(err, ErrDraining) {
				t.Fatalf("queued waiter got %v, want ErrDraining", err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d queued waiters failed; the rest stranded", i)
		}
	}
	for _, class := range classes {
		if _, err := g.AdmitClass(context.Background(), class); !errors.Is(err, ErrDraining) {
			t.Fatalf("class %q admit while draining: %v, want ErrDraining", class, err)
		}
	}
	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v with slots still live", err)
	case <-time.After(10 * time.Millisecond):
	}
	for _, b := range blockers {
		b.Release()
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
	st := g.Stats()
	if st.Queued != 0 || st.Admitted != 2 || st.Rejected != 15 {
		t.Fatalf("after drain: queued %d admitted %d rejected %d, want 0/2/15", st.Queued, st.Admitted, st.Rejected)
	}
	for _, sh := range st.Shards {
		if sh.Live != 0 {
			t.Fatalf("shard %d still has %d live after drain", sh.Shard, sh.Live)
		}
	}
}
