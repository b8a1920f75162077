package engine

import (
	"fmt"
	"sync"
	"time"
)

// AutoscalerConfig tunes the load-driven grow/shrink control loop.
type AutoscalerConfig struct {
	// Min and Max bound the active shard count the controller steers
	// between (defaults 1 and Min).
	Min int
	Max int
	// Interval is the poll period (default 2s).
	Interval time.Duration
	// GrowAfter is the number of CONSECUTIVE hot polls — admission queue
	// more than half full, or rejections since the previous poll — before
	// one shard is added (default 3). One hot poll never resizes: a
	// transient burst the queue absorbs on its own is not a trend.
	GrowAfter int
	// ShrinkAfter is the number of consecutive idle polls — an empty
	// queue and at least one active shard with zero live queries — before
	// one shard is drained (default 10; idle slots are free, so the
	// controller is slower to give capacity back than to add it).
	ShrinkAfter int
	// Cooldown is the minimum gap between two applied resizes (default
	// 3×Interval), so one sustained signal steps the pool one shard at a
	// time instead of slamming to the bound.
	Cooldown time.Duration
	// SLOQueueWaitP99 is the operator-declared latency SLO: when
	// positive, a poll observing the gate's windowed p99 queue wait
	// above it counts as hot — so a sustained breach grows the pool
	// BEFORE the queue fills and admissions start being rejected.
	// 0 disables the signal.
	SLOQueueWaitP99 time.Duration
	// Now is the clock (default time.Now; tests inject a fake).
	Now func() time.Time
}

func (c AutoscalerConfig) withDefaults() AutoscalerConfig {
	if c.Min < 1 {
		c.Min = 1
	}
	if c.Max < c.Min {
		c.Max = c.Min
	}
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.GrowAfter <= 0 {
		c.GrowAfter = 3
	}
	if c.ShrinkAfter <= 0 {
		c.ShrinkAfter = 10
	}
	if c.Cooldown <= 0 {
		c.Cooldown = 3 * c.Interval
	}
	if c.Now == nil {
		c.Now = time.Now
	}
	return c
}

// Decision is the controller's verdict for one poll tick — the freshest
// one is surfaced in GET /engine/stats so an operator can see WHY the
// pool last moved (or held).
type Decision struct {
	At     time.Time `json:"at"`
	Action string    `json:"action"` // "grow", "shrink" or "hold"
	From   int       `json:"from"`
	To     int       `json:"to"`
	Reason string    `json:"reason,omitempty"`
}

// Autoscaler is the control loop that resizes the shard pool from the
// gate's own admission signals, with hysteresis on both sides so a
// single hot or idle poll never flaps the pool. It observes through a
// stats func and acts through a resize func, so it is unit-testable with
// a fake clock and fabricated load.
type Autoscaler struct {
	cfg   AutoscalerConfig
	stats func() Stats
	// resize actuates one decision; `from` is the active count the
	// decision was computed from, so the actuator can refuse a stale one
	// (Gate.ResizeFrom) instead of reverting a concurrent operator
	// override.
	resize func(from, to int, reason string) error

	mu           sync.Mutex
	hot, idle    int
	lastRejected int64
	lastActive   int
	lastResize   time.Time
	primed       bool // at least one tick completed (override detection)

	// lastMu guards only the published decision, so Last() — the
	// /engine/stats path — never waits out a tick that is mid-resize
	// under mu.
	lastMu  sync.Mutex
	last    Decision
	decided bool

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewAutoscaler wires a controller to its observation and actuation
// functions. Call Start to launch the background loop.
func NewAutoscaler(cfg AutoscalerConfig, stats func() Stats, resize func(from, to int, reason string) error) *Autoscaler {
	return &Autoscaler{
		cfg:    cfg.withDefaults(),
		stats:  stats,
		resize: resize,
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
}

// Interval returns the defaulted poll period.
func (a *Autoscaler) Interval() time.Duration { return a.cfg.Interval }

// Bounds returns the defaulted [min, max] active-shard range.
func (a *Autoscaler) Bounds() (min, max int) { return a.cfg.Min, a.cfg.Max }

// Last returns the most recent poll decision; ok is false before the
// first tick. It never blocks behind an in-flight tick or resize.
func (a *Autoscaler) Last() (d Decision, ok bool) {
	a.lastMu.Lock()
	defer a.lastMu.Unlock()
	return a.last, a.decided
}

// tick evaluates one poll: update the hot/idle streaks from the current
// stats, and resize by one shard when a streak crosses its threshold
// inside the bounds and outside the cooldown.
func (a *Autoscaler) tick() {
	st := a.stats()
	now := a.cfg.Now()
	a.mu.Lock()
	defer a.mu.Unlock()
	if st.Draining {
		return
	}
	active := st.ActiveShards
	// The pool moved without us (operator override via POST
	// /engine/resize): restart the hysteresis from the new size instead
	// of immediately fighting the override with a stale streak.
	if a.primed && active != a.lastActive {
		a.hot, a.idle = 0, 0
		a.lastResize = now
	}
	a.primed = true
	a.lastActive = active

	rejected := st.Rejected - a.lastRejected
	a.lastRejected = st.Rejected
	// Hot: the queue is more than half full, admissions were rejected
	// since the last poll (the only saturation signal when QueueDepth is
	// 0 and the queue cannot fill), or the windowed p99 queue wait
	// breaches the declared SLO — the leading indicator that fires
	// while the queue still absorbs the load, so capacity arrives
	// before anything is shed.
	sloBreach := a.cfg.SLOQueueWaitP99 > 0 && st.QueueWait.P99 > a.cfg.SLOQueueWaitP99
	hot := rejected > 0 || (st.QueueDepth > 0 && 2*st.Queued > st.QueueDepth) || sloBreach
	idle := false
	if !hot && st.Queued == 0 {
		for _, sh := range st.Shards {
			if sh.State == ShardActive && sh.Live == 0 {
				idle = true
				break
			}
		}
	}
	switch {
	case hot:
		a.hot++
		a.idle = 0
	case idle:
		a.idle++
		a.hot = 0
	default:
		a.hot, a.idle = 0, 0
	}

	d := Decision{At: now, Action: "hold", From: active, To: active}
	cooled := now.Sub(a.lastResize) >= a.cfg.Cooldown
	switch {
	case a.hot >= a.cfg.GrowAfter && active < a.cfg.Max && cooled:
		d.Action, d.To = "grow", active+1
		sloNote := ""
		if sloBreach {
			sloNote = fmt.Sprintf(", p99 queue wait %s over the %s SLO",
				st.QueueWait.P99.Truncate(time.Microsecond), a.cfg.SLOQueueWaitP99)
		}
		d.Reason = fmt.Sprintf("queue hot for %d polls (%d queued / depth %d, %d rejected since last poll%s)",
			a.hot, st.Queued, st.QueueDepth, rejected, sloNote)
	case a.idle >= a.cfg.ShrinkAfter && active > a.cfg.Min && cooled:
		d.Action, d.To = "shrink", active-1
		d.Reason = fmt.Sprintf("idle shard for %d polls", a.idle)
	case a.hot >= a.cfg.GrowAfter && active >= a.cfg.Max:
		d.Reason = fmt.Sprintf("hot, but already at max %d shards", a.cfg.Max)
	case a.idle >= a.cfg.ShrinkAfter && active <= a.cfg.Min:
		d.Reason = fmt.Sprintf("idle, but already at min %d shards", a.cfg.Min)
	case (a.hot >= a.cfg.GrowAfter || a.idle >= a.cfg.ShrinkAfter) && !cooled:
		d.Reason = fmt.Sprintf("cooling down since last resize (%s of %s)",
			now.Sub(a.lastResize).Truncate(time.Millisecond), a.cfg.Cooldown)
	}
	if d.Action != "hold" {
		if err := a.resize(d.From, d.To, d.Reason); err != nil {
			d.Action, d.To = "hold", active
			d.Reason = fmt.Sprintf("resize failed: %v", err)
		} else {
			a.hot, a.idle = 0, 0
			a.lastResize = now
			a.lastActive = d.To
		}
	}
	a.lastMu.Lock()
	a.last, a.decided = d, true
	a.lastMu.Unlock()
}

// Start launches the background poll loop. It is idempotent.
func (a *Autoscaler) Start() {
	a.startOnce.Do(func() {
		go func() {
			defer close(a.done)
			ticker := time.NewTicker(a.cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-a.stop:
					return
				case <-ticker.C:
					a.tick()
				}
			}
		}()
	})
}

// Stop drains the background loop and waits for it to exit. It is
// idempotent and safe without Start.
func (a *Autoscaler) Stop() {
	a.stopOnce.Do(func() { close(a.stop) })
	a.startOnce.Do(func() { close(a.done) }) // never started: nothing to drain
	<-a.done
}
