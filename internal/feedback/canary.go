package feedback

import (
	"sync"
	"time"

	"progressest/internal/selection"
)

// Champion/challenger serving: with a Canary wired into the Retrainer, a
// gate-accepted candidate from a background (non-manual) training run
// does NOT hot-swap immediately. It becomes a pending challenger that
// shadow-scores on live traffic: every harvest that feeds the serving
// champion's drift window (the DriftTracker join) also replays the same
// examples through the challenger's selector, accumulating the
// L1 error each would have incurred on exactly the queries the champion
// actually served. Once a confirmation window of observations accrues,
// the challenger is promoted (atomic hot-swap, decision "accepted") only
// if its live error stays within the quality gate's tolerance of the
// champion's; otherwise it is recorded as rejected — holdout numbers
// said it was fine, live traffic disagreed. A challenger that cannot
// collect its window before MaxAge (traffic dried up) is rejected on
// expiry; the champion was serving the whole time, so nothing regressed.
// Manual retrains bypass the canary: an operator asking for a retrain
// gets the immediate swap (and the returned version) they asked for.

// CanaryConfig tunes champion/challenger confirmation.
type CanaryConfig struct {
	// Window is how many live observations confirm a challenger. <= 0
	// disables canary serving entirely (gate-accepted versions hot-swap
	// immediately, as without a Canary).
	Window int
	// MaxAge bounds how long a challenger may wait for its window
	// (default 5 minutes). On expiry it is rejected without judgement on
	// quality — there was not enough traffic to tell.
	MaxAge time.Duration
}

func (c CanaryConfig) withDefaults() CanaryConfig {
	if c.MaxAge <= 0 {
		c.MaxAge = 5 * time.Minute
	}
	return c
}

// canaryState is one pending challenger.
type canaryState struct {
	fit        *targetFit
	meta       VersionMeta
	source     string
	observedL1 float64  // drift-window mean that fired the trigger, if any
	champion   *Version // serving version the challenger must beat
	proposedAt time.Time
	champSum   float64
	chalSum    float64
	n          int
}

// Canary holds at most one pending challenger; a newer proposal
// replaces the older one (the older candidate is stale the moment a
// fresher training run completes). Observe is called from the harvest
// path and take from the retrainer's tick, so all state is guarded by
// its own lock.
type Canary struct {
	cfg CanaryConfig

	mu      sync.Mutex
	pending *canaryState
}

// NewCanary creates a canary controller. A nil *Canary is a valid "off"
// value everywhere.
func NewCanary(cfg CanaryConfig) *Canary {
	return &Canary{cfg: cfg.withDefaults()}
}

// enabled reports whether canary confirmation applies (nil-safe).
func (c *Canary) enabled() bool { return c != nil && c.cfg.Window > 0 }

// Window returns the configured confirmation window (0 when disabled).
func (c *Canary) Window() int {
	if c == nil {
		return 0
	}
	return c.cfg.Window
}

// propose registers a challenger, replacing any pending one.
func (c *Canary) propose(f *targetFit, meta VersionMeta, source string, observedL1 float64, champion *Version, now time.Time) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = &canaryState{
		fit:        f,
		meta:       meta,
		source:     source,
		observedL1: observedL1,
		champion:   champion,
		proposedAt: now,
	}
}

// Observe shadow-scores the pending challenger on a harvest batch: exs
// are the examples harvested from queries champion answered, champErrs
// the L1 error its estimator choices incurred on each (the same values
// fed to the drift window). The challenger replays each example through
// its own selector. Observations are only credited while the champion
// the challenger was proposed against is the one that served them —
// evidence against a different champion would corrupt the comparison —
// and accumulation stops at the confirmation window.
func (c *Canary) Observe(champion *Version, exs []selection.Example, champErrs []float64) {
	if !c.enabled() || len(exs) == 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.pending
	if st == nil || st.champion != champion || st.fit.sel == nil {
		return
	}
	for i := range exs {
		if st.n >= c.cfg.Window {
			break
		}
		k := st.fit.sel.Select(exs[i].Features)
		st.chalSum += exs[i].ErrL1[k]
		st.champSum += champErrs[i]
		st.n++
	}
}

// ripeLocked reports whether the pending challenger is ready for a
// verdict (window full or expired).
func (c *Canary) ripeLocked(now time.Time) bool {
	st := c.pending
	return st != nil && (st.n >= c.cfg.Window || now.Sub(st.proposedAt) >= c.cfg.MaxAge)
}

// resolvable reports whether the pending challenger is ready for a
// verdict. Nil-safe; cheap enough for every poll tick.
func (c *Canary) resolvable(now time.Time) bool {
	if !c.enabled() {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ripeLocked(now)
}

// take removes and returns the pending challenger when it is ready for a
// verdict, else nil.
func (c *Canary) take(now time.Time) *canaryState {
	if !c.enabled() {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if !c.ripeLocked(now) {
		return nil
	}
	st := c.pending
	c.pending = nil
	return st
}

// Drop discards the pending challenger, if any — a rollback means the
// operator (or the auto-rollback) moved off this model line and the
// challenger's comparison is moot. Nil-safe.
func (c *Canary) Drop() {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.pending = nil
}

// CanaryState is the pending challenger's public standing, surfaced in
// GET /models as "canaries".
type CanaryState struct {
	// Source is the trigger of the training run that produced the
	// challenger ("auto" or "drift").
	Source string `json:"source"`
	// Champion is the serving version id the challenger shadow-scores
	// against.
	Champion int `json:"champion"`
	// ProposedAt is when the challenger entered confirmation; ExpiresAt
	// when it will be rejected for lack of traffic.
	ProposedAt time.Time `json:"proposed_at"`
	ExpiresAt  time.Time `json:"expires_at"`
	// Samples of Window live observations are in; ChampionL1/ChallengerL1
	// are the running mean L1 errors on exactly those queries (0 until the
	// first observation).
	Samples      int     `json:"samples"`
	Window       int     `json:"window"`
	ChampionL1   float64 `json:"champion_l1"`
	ChallengerL1 float64 `json:"challenger_l1"`
	// HoldoutL1 is the challenger's training-time holdout error.
	HoldoutL1 float64 `json:"holdout_l1"`
}

// States returns the pending challenger, if any, as a list of at most
// one, never nil. Nil-safe.
func (c *Canary) States() []CanaryState {
	if !c.enabled() {
		return []CanaryState{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.pending
	if st == nil {
		return []CanaryState{}
	}
	cs := CanaryState{
		Source:     st.source,
		Champion:   st.champion.ID,
		ProposedAt: st.proposedAt,
		ExpiresAt:  st.proposedAt.Add(c.cfg.MaxAge),
		Samples:    st.n,
		Window:     c.cfg.Window,
		HoldoutL1:  st.meta.HoldoutL1,
	}
	if st.n > 0 {
		cs.ChampionL1 = st.champSum / float64(st.n)
		cs.ChallengerL1 = st.chalSum / float64(st.n)
	}
	return []CanaryState{cs}
}
