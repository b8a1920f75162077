package feedback

import (
	"sort"
	"sync"
	"time"
)

// DriftConfig tunes the observed-vs-predicted drift monitor.
type DriftConfig struct {
	// Window is the number of most recent observed per-pipeline errors the
	// tracker keeps per serving version (default 256). Older observations
	// roll off, so the verdict reflects current traffic, not the version's
	// lifetime average.
	Window int
	// MinSamples is the minimum number of windowed observations before a
	// drift verdict can fire (default 32): a fresh version — or a freshly
	// reset window — must accrue evidence first.
	MinSamples int
	// Ratio is the accepted observed/predicted error inflation: a version is
	// drifted once meanObserved > baseline*Ratio + AbsSlack (default 1.5).
	Ratio float64
	// AbsSlack is the absolute slack added to the ratio bound (default
	// 0.01, mirroring the paper's Section 6.6 near-optimal tolerance):
	// near a tiny baseline a purely relative bound would flag measurement
	// noise as drift. Negative means zero slack.
	AbsSlack float64
}

const (
	defaultDriftWindow     = 256
	defaultDriftMinSamples = 32
	defaultDriftRatio      = 1.5
)

func (c DriftConfig) withDefaults() DriftConfig {
	if c.Window <= 0 {
		c.Window = defaultDriftWindow
	}
	if c.MinSamples <= 0 {
		c.MinSamples = defaultDriftMinSamples
	}
	if c.MinSamples > c.Window {
		// The ring can never hold MinSamples observations; an unclamped
		// config would silently disable every verdict (e.g.
		// -drift-window 16 with the default 32 minimum).
		c.MinSamples = c.Window
	}
	if c.Ratio <= 0 {
		c.Ratio = defaultDriftRatio
	}
	switch {
	case c.AbsSlack < 0:
		c.AbsSlack = 0
	case c.AbsSlack == 0:
		c.AbsSlack = gateAbsSlack
	}
	return c
}

// DriftState is the serving version's observed-vs-predicted standing.
type DriftState struct {
	// Version is the serving version the window is accounting against.
	Version int
	// BaselineL1/BaselineN are that version's holdout baseline (predicted
	// error); BaselineN 0 (v0, seeds) means no fair baseline exists and
	// Drifted stays false no matter the observations.
	BaselineL1 float64
	BaselineN  int
	// ObservedL1 is the mean L1 error of the version's own estimator
	// choices over the windowed observations; ObservedP90 the 90th
	// percentile of the same window.
	ObservedL1  float64
	ObservedP90 float64
	// Samples is the number of observations currently in the window (at
	// most Window); Total counts every observation recorded for this
	// version since the window was last reset, including rolled-off ones.
	Samples int
	Total   int
	// Drifted reports the verdict: a fair baseline exists, the window has
	// at least MinSamples observations, and ObservedL1 exceeds
	// BaselineL1*Ratio + AbsSlack.
	Drifted bool
	// Since is when the verdict first became true for this version's
	// window (zero while not drifted); it resets when the window does.
	Since time.Time
}

// driftWindow is one version's mutable accounting, hung off the
// Version it judges and guarded by the tracker's lock.
type driftWindow struct {
	ring   []float64
	next   int // ring write cursor
	filled int // observations in the ring (≤ len(ring))
	sum    float64
	total  int // observations recorded since the window was last reset
	since  time.Time
}

// DriftTracker joins each served query's pinned model version with the
// estimator errors later harvested for that same query, and compares the
// version's windowed observed error against its recorded holdout
// baseline — König et al.'s serving-time signal that a selection model
// has gone stale. Each window belongs to the Version it judges; the
// registry's serving pointer alone says which window is read: Status and
// Drifted report only the version serving now, so a late harvest for a
// replaced or rolled-back-from version lands in a window no one reads.
// All methods are safe for concurrent use; Record sits on the harvest
// path (one append per finished pipeline), so the window keeps a running
// sum and defers anything O(window) to Status.
type DriftTracker struct {
	cfg DriftConfig
	reg *Registry

	mu sync.Mutex // guards every Version's window
}

// NewDriftTracker returns a tracker judging reg's serving version.
func NewDriftTracker(reg *Registry, cfg DriftConfig) *DriftTracker {
	return &DriftTracker{cfg: cfg.withDefaults(), reg: reg}
}

// Config returns the tracker's effective (defaulted) configuration.
func (t *DriftTracker) Config() DriftConfig { return t.cfg }

// Record accounts the observed per-pipeline L1 errors of one finished
// query against v, the version pinned to it at start. The window is
// allocated on v's first Record; later Records allocate nothing.
func (t *DriftTracker) Record(v *Version, errs []float64) {
	if len(errs) == 0 || v == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	w := v.drift
	if w == nil {
		w = &driftWindow{ring: make([]float64, t.cfg.Window)}
		v.drift = w
	}
	for _, e := range errs {
		if w.filled == len(w.ring) {
			w.sum -= w.ring[w.next]
		} else {
			w.filled++
		}
		w.ring[w.next] = e
		w.sum += e
		w.next = (w.next + 1) % len(w.ring)
		w.total++
	}
	if t.driftedLocked(v) {
		if w.since.IsZero() {
			w.since = time.Now()
		}
	} else {
		w.since = time.Time{}
	}
}

// driftedLocked evaluates the verdict for v's window.
func (t *DriftTracker) driftedLocked(v *Version) bool {
	w := v.drift
	if v.Meta.HoldoutN <= 0 || w.filled < t.cfg.MinSamples {
		return false
	}
	mean := w.sum / float64(w.filled)
	return mean > v.Meta.HoldoutL1*t.cfg.Ratio+t.cfg.AbsSlack
}

// Reset gives the serving version a fresh, empty window: a
// drift-triggered retrain whose candidate the gate rejected (the old
// version keeps serving) must re-accrue MinSamples fresh observations
// before the verdict can fire again, instead of re-firing every poll
// tick on the same stale window; a rollback starts the rolled-back-to
// version's evidence afresh.
func (t *DriftTracker) Reset() {
	v := t.reg.Current()
	t.mu.Lock()
	defer t.mu.Unlock()
	v.drift = &driftWindow{ring: make([]float64, t.cfg.Window)}
}

// stateLocked snapshots v's window into its public form; the O(window)
// p90 is computed only when withP90 is set.
func (t *DriftTracker) stateLocked(v *Version, withP90 bool) DriftState {
	w := v.drift
	st := DriftState{
		Version:    v.ID,
		BaselineL1: v.Meta.HoldoutL1,
		BaselineN:  v.Meta.HoldoutN,
		Samples:    w.filled,
		Total:      w.total,
		Drifted:    t.driftedLocked(v),
		Since:      w.since,
	}
	if w.filled > 0 {
		st.ObservedL1 = w.sum / float64(w.filled)
	}
	if withP90 && w.filled > 0 {
		obs := make([]float64, w.filled)
		copy(obs, w.ring[:w.filled])
		sort.Float64s(obs)
		// Nearest-rank p90 over the window (small by construction).
		idx := (len(obs)*9 + 9) / 10
		if idx > len(obs) {
			idx = len(obs)
		}
		st.ObservedP90 = obs[idx-1]
	}
	return st
}

// Status returns the standing of the serving version; ok is false while
// the serving version has no window yet (no harvest recorded since it
// started serving).
func (t *DriftTracker) Status() (DriftState, bool) {
	return t.state(true)
}

// Drifted returns the serving version's standing when its verdict is
// currently true — the retrainer's drift trigger. It runs every poll
// tick, so unlike Status it stays O(1) (no window copy or sort): the
// returned state leaves ObservedP90 zero.
func (t *DriftTracker) Drifted() (DriftState, bool) {
	st, ok := t.state(false)
	return st, ok && st.Drifted
}

func (t *DriftTracker) state(withP90 bool) (DriftState, bool) {
	v := t.reg.Current()
	t.mu.Lock()
	defer t.mu.Unlock()
	if v.drift == nil {
		return DriftState{}, false
	}
	return t.stateLocked(v, withP90), true
}
