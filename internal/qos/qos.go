// Package qos implements the serving tier's quality-of-service
// primitives: a virtual-time weighted fair queue (WFQ) over named
// admission classes — workload families, optionally suffixed per client
// — and windowed latency accounting with nearest-rank percentiles.
//
// The scheduler replaces a global FIFO waiting room: each class owns a
// FIFO of waiters tagged with virtual start times (start-time fair
// queueing: start = max(virtual time, class's last finish), finish =
// start + 1/weight), and dispatch always grants the waiter with the
// smallest start tag. A backlogged heavy class therefore advances its
// tags 1/weight per grant while a light class advances 1 per grant, so
// under saturation every class converges to its weight share of the
// admissions — one hot family can no longer monopolize the pool — while
// a single-class workload degenerates to exactly the old FIFO order.
//
// The Sched is a pure data structure: it does no locking of its own and
// is driven entirely under its owner's mutex (the engine Gate), which
// keeps the admission hot path single-lock and allocation-free at
// steady state (BenchmarkWFQAdmit gates 0 allocs/op in CI).
package qos

import (
	"errors"
	"sort"
	"strings"
	"time"
)

// Options configures a scheduler.
type Options struct {
	// Weights maps class names to their fair-queueing weight (default
	// 1). A class named "family|client" that has no weight of its own
	// inherits the weight of "family", so per-client classes split their
	// family's share instead of multiplying it.
	Weights map[string]int
	// TotalDepth bounds the waiters queued across all classes; 0
	// disables queueing entirely (Enqueue always fails).
	TotalDepth int
	// ClassDepth bounds one class's queued waiters (default TotalDepth,
	// i.e. no per-class tightening), so a single saturating class can be
	// kept from consuming the whole shared waiting room.
	ClassDepth int
}

func (o Options) withDefaults() Options {
	if o.TotalDepth < 0 {
		o.TotalDepth = 0
	}
	if o.ClassDepth <= 0 || o.ClassDepth > o.TotalDepth {
		o.ClassDepth = o.TotalDepth
	}
	return o
}

// ErrQueueFull is returned by Enqueue when the shared waiting room is
// at TotalDepth (or queueing is disabled).
var ErrQueueFull = errors.New("qos: admission queue full")

// ErrClassFull is returned by Enqueue when the waiter's class is at its
// per-class depth bound while the shared room still has space.
var ErrClassFull = errors.New("qos: class queue full")

// Waiter is one queued admission. The owner allocates it, enqueues it,
// and either receives the granted shard index on C (buffered, so
// dispatch never blocks), sees C closed by a drain, or removes it on
// cancellation.
type Waiter struct {
	// C receives the granted shard; the drain path closes it instead.
	C chan int

	cls   *Class
	start float64   // virtual start tag
	seq   uint64    // global enqueue ordinal (FIFO tie-break)
	at    time.Time // enqueue timestamp (queue-wait accounting)
}

// NewWaiter returns a waiter ready to enqueue.
func NewWaiter() *Waiter { return &Waiter{C: make(chan int, 1)} }

// Class returns the class the waiter is (or was last) queued under, nil
// before its first Enqueue.
func (w *Waiter) Class() *Class { return w.cls }

// EnqueuedAt returns the timestamp passed to Enqueue.
func (w *Waiter) EnqueuedAt() time.Time { return w.at }

// Class is one admission class's scheduling state and accounting. All
// methods require the owner's lock, like the Sched itself.
type Class struct {
	name   string
	weight float64

	// waiters[head:] is the class FIFO; pop advances head and compacts
	// lazily so steady-state churn neither shifts elements per pop nor
	// grows the slice without bound.
	waiters    []*Waiter
	head       int
	lastFinish float64

	admitted int64
	rejected int64
	shed     int64

	wait *Window // queue wait: Enqueue (or Admit entry) -> grant
	done *Window // admission to done: Admit entry -> release
}

// Name returns the class name.
func (c *Class) Name() string { return c.name }

// Weight returns the class's resolved fair-queueing weight.
func (c *Class) Weight() int { return int(c.weight) }

// Queued returns the class's currently queued waiter count.
func (c *Class) Queued() int { return len(c.waiters) - c.head }

// RecordDone accounts one finished admission's admission-to-done
// latency (from Admit entry to release, queue wait included).
func (c *Class) RecordDone(d time.Duration) { c.done.Record(d) }

// Reject counts one admission rejected for queue overflow (or refused
// while queueing is disabled).
func (c *Class) Reject() { c.rejected++ }

// Shed counts one admission shed by deadline-aware admission control.
func (c *Class) Shed() { c.shed++ }

func (c *Class) push(w *Waiter) {
	c.waiters = append(c.waiters, w)
}

func (c *Class) pop() *Waiter {
	w := c.waiters[c.head]
	c.waiters[c.head] = nil
	c.head++
	c.compact()
	return w
}

// compact reclaims the popped prefix once it dominates the slice, so a
// continuously busy class's backing array stays proportional to its
// queue bound instead of growing with lifetime churn.
func (c *Class) compact() {
	if c.head == len(c.waiters) {
		c.waiters = c.waiters[:0]
		c.head = 0
		return
	}
	if c.head >= 32 && c.head*2 >= len(c.waiters) {
		n := copy(c.waiters, c.waiters[c.head:])
		for i := n; i < len(c.waiters); i++ {
			c.waiters[i] = nil
		}
		c.waiters = c.waiters[:n]
		c.head = 0
	}
}

// remove deletes w from the class FIFO, preserving order; it reports
// whether w was found.
func (c *Class) remove(w *Waiter) bool {
	for i := c.head; i < len(c.waiters); i++ {
		if c.waiters[i] != w {
			continue
		}
		copy(c.waiters[i:], c.waiters[i+1:])
		c.waiters[len(c.waiters)-1] = nil
		c.waiters = c.waiters[:len(c.waiters)-1]
		c.compact()
		return true
	}
	return false
}

// ClassStats is one class's point-in-time accounting snapshot.
type ClassStats struct {
	// Class is the class name ("" is the default class).
	Class string
	// Weight is the resolved fair-queueing weight.
	Weight int
	// Queued is the number of waiters queued under the class right now.
	Queued int
	// Admitted, Rejected and Shed are lifetime counters: grants (fast
	// path and queued), queue-overflow rejections, and deadline sheds.
	Admitted int64
	Rejected int64
	Shed     int64
	// QueueWait summarizes the windowed queue-wait latency (Admit entry
	// to grant — recorded on the fast path too, so uncontended
	// admissions keep the percentiles honest); Latency the windowed
	// admission-to-done latency (Admit entry to release).
	QueueWait Summary
	Latency   Summary
}

// Sched is the weighted fair queue over all classes plus the aggregate
// queue-wait window Retry-After hints read. Not safe for concurrent use:
// the owner serializes every call under its own mutex.
type Sched struct {
	opts Options

	classes map[string]*Class
	order   []*Class // creation order; Stats sorts by name

	vtime  float64
	seq    uint64
	queued int

	aggWait *Window // queue waits across all classes (Retry-After hints)
}

// New builds an empty scheduler.
func New(opts Options) *Sched {
	opts = opts.withDefaults()
	return &Sched{
		opts:    opts,
		classes: make(map[string]*Class),
		aggWait: NewWindow(DefaultWindow),
	}
}

// weightFor resolves a class name's weight: exact match first, then the
// family prefix of a "family|client" name, then weight 1.
func (s *Sched) weightFor(name string) int {
	if w, ok := s.opts.Weights[name]; ok && w > 0 {
		return w
	}
	if i := strings.IndexByte(name, '|'); i >= 0 {
		if w, ok := s.opts.Weights[name[:i]]; ok && w > 0 {
			return w
		}
	}
	return 1
}

// Lookup returns the named class, creating it on first sight. The
// class set only grows: classes are few (workload families, plus
// tagged clients) and their lifetime counters must survive idleness.
func (s *Sched) Lookup(name string) *Class {
	if c, ok := s.classes[name]; ok {
		return c
	}
	c := &Class{
		name:   name,
		weight: float64(s.weightFor(name)),
		wait:   NewWindow(DefaultWindow),
		done:   NewWindow(DefaultWindow),
	}
	s.classes[name] = c
	s.order = append(s.order, c)
	return c
}

// Len returns the total queued waiter count across classes.
func (s *Sched) Len() int { return s.queued }

// FastAdmit accounts a fast-path grant (capacity was free, the waiter
// never queued): the measured wait — Admit entry to grant, typically
// microseconds — still enters the class and aggregate windows so the
// queue-wait percentiles are exact over ALL admissions, not just the
// contended ones.
func (s *Sched) FastAdmit(c *Class, wait time.Duration) {
	c.admitted++
	c.wait.Record(wait)
	s.aggWait.Record(wait)
}

// Enqueue tags w with its virtual start time and appends it to c's
// FIFO. at is the admission's entry timestamp (queue wait is measured
// from it at grant time). Fails with ErrQueueFull (shared room full or
// queueing disabled) or ErrClassFull (per-class bound hit), counting
// the rejection against the class.
func (s *Sched) Enqueue(c *Class, w *Waiter, at time.Time) error {
	if s.opts.TotalDepth <= 0 || s.queued >= s.opts.TotalDepth {
		c.rejected++
		return ErrQueueFull
	}
	if c.Queued() >= s.opts.ClassDepth {
		c.rejected++
		return ErrClassFull
	}
	start := s.vtime
	if c.lastFinish > start {
		start = c.lastFinish
	}
	c.lastFinish = start + 1/c.weight
	s.seq++
	w.cls, w.start, w.seq, w.at = c, start, s.seq, at
	c.push(w)
	s.queued++
	return nil
}

// Next pops and returns the waiter with the smallest virtual start tag
// (FIFO within a class, enqueue order across equal tags), advancing the
// virtual clock to it and recording its queue wait as of now. Returns
// nil when nothing is queued.
func (s *Sched) Next(now time.Time) *Waiter {
	var best *Class
	for _, c := range s.order {
		if c.Queued() == 0 {
			continue
		}
		h := c.waiters[c.head]
		if best == nil {
			best = c
			continue
		}
		b := best.waiters[best.head]
		if h.start < b.start || (h.start == b.start && h.seq < b.seq) {
			best = c
		}
	}
	if best == nil {
		return nil
	}
	w := best.pop()
	s.queued--
	if w.start > s.vtime {
		s.vtime = w.start
	}
	wait := now.Sub(w.at)
	best.admitted++
	best.wait.Record(wait)
	s.aggWait.Record(wait)
	return w
}

// Remove deletes a cancelled waiter from its class queue; false means
// the waiter was already granted (or drained) and its channel must be
// consulted instead.
func (s *Sched) Remove(w *Waiter) bool {
	if w.cls == nil || !w.cls.remove(w) {
		return false
	}
	s.queued--
	return true
}

// Drain pops every queued waiter in dispatch order, calling fail on
// each, and returns how many were failed. The owner uses it to fail
// queued admissions en masse at shutdown instead of stranding them.
func (s *Sched) Drain(fail func(*Waiter)) int {
	n := 0
	for {
		var best *Class
		for _, c := range s.order {
			if c.Queued() == 0 {
				continue
			}
			if best == nil || c.waiters[c.head].start < best.waiters[best.head].start ||
				(c.waiters[c.head].start == best.waiters[best.head].start &&
					c.waiters[c.head].seq < best.waiters[best.head].seq) {
				best = c
			}
		}
		if best == nil {
			return n
		}
		w := best.pop()
		s.queued--
		n++
		fail(w)
	}
}

// predictMinSamples is the minimum windowed class evidence before the
// class's own p90 predicts; with less, the aggregate window stands in.
// The floor matters: below it a single outlier queue wait IS the class
// p90 (nearest-rank over one sample), and deadline admission would shed
// every deadline-bearing request of the class until the window turned
// over, on the strength of one observation.
const predictMinSamples = 8

// PredictWait estimates the queue wait an admission of class c would
// incur right now: the class's windowed p90 queue wait when it has
// evidence, the aggregate p90 otherwise, 0 with no evidence at all —
// deliberately optimistic, so deadline admission only sheds once real
// waits have been observed.
func (s *Sched) PredictWait(c *Class) time.Duration {
	if c.wait.Samples() >= predictMinSamples {
		return c.wait.Quantile(0.90)
	}
	return s.aggWait.Quantile(0.90)
}

// WaitSummary summarizes the aggregate queue-wait window across all
// classes — the source of the serving layer's Retry-After hints.
func (s *Sched) WaitSummary() Summary { return s.aggWait.Summary() }

// Stats snapshots every class's accounting, sorted by name.
func (s *Sched) Stats() []ClassStats {
	out := make([]ClassStats, 0, len(s.order))
	for _, c := range s.order {
		out = append(out, ClassStats{
			Class:     c.name,
			Weight:    int(c.weight),
			Queued:    c.Queued(),
			Admitted:  c.admitted,
			Rejected:  c.rejected,
			Shed:      c.shed,
			QueueWait: c.wait.Summary(),
			Latency:   c.done.Summary(),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Class < out[j].Class })
	return out
}
