package feedback

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"progressest/internal/selection"
)

// Publication decisions recorded in VersionMeta.Decision.
const (
	// DecisionAccepted marks a version that passed the retrain-quality
	// gate (or predates it) and was hot-swapped into serving.
	DecisionAccepted = "accepted"
	// DecisionRejected marks a trained version the quality gate refused to
	// serve; it stays in the history for operator inspection only.
	DecisionRejected = "rejected"
	// DecisionCanary marks a gate-accepted candidate that entered
	// champion/challenger confirmation instead of hot-swapping; the final
	// verdict lands as a later "canary"-triggered decision (see canary.go).
	DecisionCanary = "canary"
)

// VersionMeta describes how a selector version came to be.
type VersionMeta struct {
	// TrainedAt is the wall-clock publication time.
	TrainedAt time.Time
	// CorpusSize is the number of harvested examples in the store when the
	// version was trained (seed examples excluded).
	CorpusSize int
	// HoldoutL1 is the selector's mean L1 error on the held-out slice of
	// the corpus (in-sample when the corpus was too small to split), and
	// HoldoutN the number of held-out examples it was measured on —
	// 0 when the evaluation was in-sample or the version was never
	// holdout-evaluated at all (seed models, v0); versions with
	// HoldoutN > 0, and the untrained v0, serve as quality-gate baselines.
	HoldoutL1 float64
	HoldoutN  int
	// Source tags provenance: "fixed" (v0), "seed", "auto", "manual",
	// "restored", ...
	Source string
	// Decision records the quality-gate outcome (DecisionAccepted or
	// DecisionRejected).
	Decision string
	// BaselineL1 is the serving version's holdout L1 the gate compared
	// against (0 when there was no baseline to compare).
	BaselineL1 float64
}

// Version is one published selector with its metadata. ID, Selector and
// Meta are immutable after publication; the drift window judging the
// version hangs off it, written only under its DriftTracker's lock.
type Version struct {
	ID       int
	Selector *selection.Selector
	Meta     VersionMeta

	drift *driftWindow
}

// IsV0 reports whether v is v0, the untrained selector a registry is
// born serving.
func (v *Version) IsV0() bool { return v.ID == 0 }

// Registry holds the published selector versions and the one currently
// serving every query, from v0 — the bottom of every rollback chain,
// never pruned or persisted — on. The serving pointer is atomic, so
// readers on the query-admission hot path never block — not even
// mid-publish or mid-rollback.
type Registry struct {
	current atomic.Pointer[Version]

	mu       sync.Mutex
	versions []*Version
	// rolledBack marks versions an operator moved off of; further
	// rollbacks skip them, so walking back never re-serves a model that
	// was already judged bad.
	rolledBack map[int]bool
	nextID     int
}

// NewRegistry returns a registry serving v0, an untrained selector such
// as selection.Fixed(k), as version 0 with source "fixed".
func NewRegistry(v0 *selection.Selector) *Registry {
	r := &Registry{nextID: 1, rolledBack: make(map[int]bool)}
	v := &Version{Selector: v0, Meta: VersionMeta{TrainedAt: time.Now(), Source: "fixed", Decision: DecisionAccepted}}
	r.versions = []*Version{v}
	r.current.Store(v)
	return r
}

// maxPersistHistory is how deep a rollback chain is persisted (and
// protected from pruning): the serving version plus this many earlier
// rollback candidates survive both version pruning and a daemon restart,
// so POST /models/rollback keeps working after either.
const maxPersistHistory = 2

// maxVersions bounds the retained publication history: a daemon
// retraining every minute for weeks must not pin thousands of multi-MB
// selectors. Pruning drops gate-rejected versions first — they never
// served and exist only for inspection — then the oldest versions that
// are neither serving nor on its rollback chain, so POST
// /models/rollback always has somewhere to go while any earlier accepted
// version survives.
const maxVersions = 32

// Publish appends a new version and atomically makes it current. It
// returns the published version.
func (r *Registry) Publish(sel *selection.Selector, meta VersionMeta) *Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	if meta.Decision == "" {
		meta.Decision = DecisionAccepted
	}
	v := r.appendLocked(sel, meta)
	r.current.Store(v)
	r.pruneLocked()
	return v
}

// Record appends a version to the history WITHOUT making it serve — the
// quality gate's reject path. The decision defaults to DecisionRejected.
func (r *Registry) Record(sel *selection.Selector, meta VersionMeta) *Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	if meta.Decision == "" {
		meta.Decision = DecisionRejected
	}
	v := r.appendLocked(sel, meta)
	r.pruneLocked()
	return v
}

func (r *Registry) appendLocked(sel *selection.Selector, meta VersionMeta) *Version {
	v := &Version{ID: r.nextID, Selector: sel, Meta: meta}
	r.nextID++
	r.versions = append(r.versions, v)
	return v
}

// pruneLocked drops the oldest versions beyond maxVersions; their
// rollback marks go with them. v0, the serving version and its rollback
// chain are never pruned.
func (r *Registry) pruneLocked() {
	if len(r.versions) <= maxVersions {
		return
	}
	protected := make(map[int]bool, maxPersistHistory+1)
	for _, v := range r.chainLocked(maxPersistHistory + 1) {
		protected[v.ID] = true
	}
	// Two passes: gate-rejected versions go first, then the oldest
	// unprotected accepted ones.
	for pass := 0; pass < 2 && len(r.versions) > maxVersions; pass++ {
		for len(r.versions) > maxVersions {
			drop := -1
			for i, v := range r.versions {
				if v.IsV0() || protected[v.ID] || (pass == 0 && v.Meta.Decision != DecisionRejected) {
					continue
				}
				drop = i
				break
			}
			if drop < 0 {
				break
			}
			delete(r.rolledBack, r.versions[drop].ID)
			r.versions = append(r.versions[:drop], r.versions[drop+1:]...)
		}
	}
}

// Current returns the serving version, never nil. It never blocks.
func (r *Registry) Current() *Version { return r.current.Load() }

// IsCurrent reports whether v is the serving version.
func (r *Registry) IsCurrent(v *Version) bool { return r.current.Load() == v }

// ErrNoRollback is returned when no earlier version exists to roll back
// to: v0 serves.
var ErrNoRollback = errors.New("feedback: no earlier selector version to roll back to")

// Rollback atomically moves the serving pointer to the newest earlier
// accepted version that was never itself rolled back. The serving
// version is marked bad, so after "publish v2 (bad) → rollback to v1 →
// auto-publish v3 (bad) → rollback" the registry serves v1 again, not
// the already rejected v2. Publishing again moves forward with a fresh
// ID.
func (r *Registry) Rollback() (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur := r.current.Load()
	v := r.rollbackCandidateLocked(cur)
	if v == nil {
		return nil, ErrNoRollback
	}
	r.rolledBack[cur.ID] = true
	r.current.Store(v)
	return v, nil
}

// rollbackCandidateLocked returns the version Rollback would move the
// serving pointer cur to: the newest earlier accepted, never-rolled-back
// version — or nil when cur is v0.
func (r *Registry) rollbackCandidateLocked(cur *Version) *Version {
	at := -1
	for i, v := range r.versions {
		if v == cur {
			at = i
			break
		}
	}
	for j := at - 1; j >= 0; j-- {
		v := r.versions[j]
		if v.Meta.Decision == DecisionRejected || r.rolledBack[v.ID] {
			continue
		}
		return v
	}
	return nil
}

// chainLocked returns the serving version followed by the versions
// successive Rollbacks would serve, n versions at most, stopping above
// v0 (empty while v0 serves). Pruning and persistence share this walk,
// so pruning can never evict a version a rollback — or a restart's
// restored history — would need.
func (r *Registry) chainLocked(n int) []*Version {
	var out []*Version
	// Every version but v0 has a rollback candidate: at worst v0.
	for v := r.current.Load(); !v.IsV0() && len(out) < n; v = r.rollbackCandidateLocked(v) {
		out = append(out, v)
	}
	return out
}

// PersistState returns, as one snapshot under the registry lock, the
// serving version followed by its rollback chain, up to depth earlier
// versions — everything Sync writes to disk. The chain entries are
// exactly what successive Rollback calls would serve, so a restart
// restores not just the serving version but somewhere to roll back to.
// v0 is configuration, not a model, so it is never part of it.
func (r *Registry) PersistState(depth int) []*Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.chainLocked(depth + 1)
}

// Versions returns the publication history, oldest first.
func (r *Registry) Versions() []*Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Version(nil), r.versions...)
}
