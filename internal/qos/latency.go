package qos

import (
	"math"
	"time"
)

// Window is a fixed-capacity ring of duration observations with
// nearest-rank percentile reads — the latency accounting primitive of
// the QoS tier. Record is O(1) (one ring write); percentile reads sort
// a reused scratch copy of the window, so the read path allocates only
// until the scratch reaches the window size. Like the scheduler, a
// Window does no locking of its own: every method runs under the
// owner's mutex.
type Window struct {
	ring    []time.Duration
	next    int // write cursor
	filled  int // observations in the ring (≤ cap)
	total   int64
	scratch []time.Duration
}

// DefaultWindow is the size of every latency window the scheduler keeps:
// each class's queue-wait and admission-to-done windows and the
// aggregate queue-wait window.
const DefaultWindow = 512

// NewWindow returns an empty window keeping the n most recent
// observations (DefaultWindow when n <= 0).
func NewWindow(n int) *Window {
	if n <= 0 {
		n = DefaultWindow
	}
	return &Window{ring: make([]time.Duration, n)}
}

// Record appends one observation, rolling the oldest off a full window.
func (w *Window) Record(d time.Duration) {
	if d < 0 {
		d = 0
	}
	if w.filled < len(w.ring) {
		w.filled++
	}
	w.ring[w.next] = d
	w.next = (w.next + 1) % len(w.ring)
	w.total++
}

// Samples returns the number of observations currently windowed.
func (w *Window) Samples() int { return w.filled }

// Total returns the lifetime observation count, including rolled-off
// ones.
func (w *Window) Total() int64 { return w.total }

// sorted refreshes the scratch copy of the window in ascending order
// and returns it (nil when empty).
func (w *Window) sorted() []time.Duration {
	if w.filled == 0 {
		return nil
	}
	if cap(w.scratch) < w.filled {
		w.scratch = make([]time.Duration, w.filled)
	}
	s := w.scratch[:w.filled]
	copy(s, w.ring[:w.filled])
	// Insertion sort: windows are small (≤ DefaultWindow) and nearly
	// sorted reads are common; no allocation, no interface calls.
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
	return s
}

// rank returns the nearest-rank q-th percentile of the sorted slice
// (the same convention as the drift tracker's p90).
func rank(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	idx := int(math.Ceil(q * float64(len(sorted))))
	if idx < 1 {
		idx = 1
	}
	if idx > len(sorted) {
		idx = len(sorted)
	}
	return sorted[idx-1]
}

// Summary is one window's percentile snapshot.
type Summary struct {
	// Samples is the number of windowed observations the percentiles
	// were computed over; Total counts lifetime observations.
	Samples int
	Total   int64
	// P50, P90 and P99 are nearest-rank percentiles of the window.
	P50, P90, P99 time.Duration
}

// Summary computes the window's nearest-rank p50/p90/p99 in one sort.
func (w *Window) Summary() Summary {
	s := w.sorted()
	return Summary{
		Samples: len(s),
		Total:   w.total,
		P50:     rank(s, 0.50),
		P90:     rank(s, 0.90),
		P99:     rank(s, 0.99),
	}
}

// Quantile returns the nearest-rank q-th percentile of the window
// (0 when empty).
func (w *Window) Quantile(q float64) time.Duration {
	return rank(w.sorted(), q)
}
