package feedback

import (
	"errors"
	"sort"
	"sync"
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
	// holdout-evaluated at all (seed models); only versions with
	// HoldoutN > 0 serve as quality-gate baselines.
	HoldoutL1 float64
	HoldoutN  int
	// Source tags provenance: "seed", "auto", "manual", "restored", ...
	Source string
	// Family is the routing target the version serves: "" for the global
	// model, otherwise one workload family (see workload.QueryFamily).
	Family string
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

// Registry holds the published selector versions and, per routing target
// (the global model under family "", plus one entry per workload family
// with its own trained model), the one currently serving. The routing
// table is a copy-on-write selection.Router, so readers on the
// query-admission hot path never block — not even mid-publish or
// mid-rollback.
type Registry struct {
	router *selection.Router[*Version]

	mu       sync.Mutex
	versions []*Version
	// rolledBack marks versions an operator moved off of; further
	// rollbacks skip them, so walking back never re-serves a model that
	// was already judged bad.
	rolledBack map[int]bool
	// pinnedToGlobal marks families an operator rolled back PAST their
	// last version, deleting the route: the background retrainer must not
	// quietly re-publish a model for them (it would be trained on largely
	// the same corpus the operator just rejected). A Publish for the
	// family — e.g. from a manual retrain — clears the pin. pinOrder
	// remembers pin insertion order so the set stays bounded (see
	// maxFallbackPins) on a long-lived daemon that pins many families.
	pinnedToGlobal map[string]bool
	pinOrder       []string
	nextID         int
}

// NewRegistry returns an empty registry; Current is nil until the first
// Publish.
func NewRegistry() *Registry {
	return &Registry{
		router:         selection.NewRouter[*Version](),
		nextID:         1,
		rolledBack:     make(map[int]bool),
		pinnedToGlobal: make(map[string]bool),
	}
}

// maxPersistHistory is how deep a rollback chain each routing target
// persists (and pruning protects): the serving version plus this many
// earlier rollback candidates survive both version pruning and a daemon
// restart, so POST /models/rollback keeps working after either.
const maxPersistHistory = 2

// maxFallbackPins bounds the pinned-to-global set: pins beyond it are
// forgotten oldest-first. A forgotten pin only means the background
// retrainer may train that family again — acceptable for pins hundreds
// of rollbacks old, and the bound keeps the bookkeeping from leaking on
// a long-lived daemon.
const maxFallbackPins = 256

// maxVersions bounds the retained publication history: a daemon
// retraining every minute for weeks must not pin thousands of multi-MB
// selectors. The budget scales with the routing-table size (every target
// appends a version per retrain cycle, so a fixed bound would erode to a
// fraction of a cycle with many families). Pruning drops gate-rejected
// versions first — they never served and exist only for inspection —
// then the oldest versions that are neither serving a target nor its
// next rollback candidate, so POST /models/rollback always has somewhere
// to go while any earlier accepted version survives.
const maxVersions = 32

// Publish appends a new version and atomically makes it current for its
// family (meta.Family; "" = the global model). It returns the published
// version.
func (r *Registry) Publish(sel *selection.Selector, meta VersionMeta) *Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	if meta.Decision == "" {
		meta.Decision = DecisionAccepted
	}
	v := r.appendLocked(sel, meta)
	r.router.Set(meta.Family, v)
	delete(r.pinnedToGlobal, meta.Family)
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

// pruneLocked drops the oldest versions beyond the history budget (see
// maxVersions); their rollback marks go with them. Serving versions and
// each target's rollback candidate are never pruned.
func (r *Registry) pruneLocked() {
	routed := r.router.Snapshot()
	budget := maxVersions
	if scaled := 3 * len(routed); scaled > budget {
		budget = scaled
	}
	if len(r.versions) <= budget {
		return
	}
	protected := make(map[int]bool, 2*len(routed))
	for _, v := range routed {
		protected[v.ID] = true
	}
	// Protect each target's rollback chain to the persisted depth — the
	// exact versions successive Rollbacks would move to, which are also
	// what Sync writes into the manifest's history.
	for family, cur := range routed {
		for d := 0; d < maxPersistHistory; d++ {
			v := r.rollbackCandidateLocked(family, cur)
			if v == nil {
				break
			}
			protected[v.ID] = true
			cur = v
		}
	}
	// Two passes: gate-rejected versions go first, then the oldest
	// unprotected accepted ones.
	for pass := 0; pass < 2 && len(r.versions) > budget; pass++ {
		for len(r.versions) > budget {
			drop := -1
			for i, v := range r.versions {
				if protected[v.ID] || (pass == 0 && v.Meta.Decision != DecisionRejected) {
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
	// Defensive sweep: rollback marks must only reference live versions.
	// The per-drop delete above keeps this true already, but the invariant
	// is cheap to enforce and a leak here would grow for the life of the
	// daemon.
	if len(r.rolledBack) > len(r.versions) {
		live := make(map[int]bool, len(r.versions))
		for _, v := range r.versions {
			live[v.ID] = true
		}
		for id := range r.rolledBack {
			if !live[id] {
				delete(r.rolledBack, id)
			}
		}
	}
}

// Current returns the serving global version, or nil if none was
// published yet. It never blocks.
func (r *Registry) Current() *Version {
	v, _ := r.router.Get("")
	return v
}

// CurrentFor resolves the serving version for a workload family: the
// family's own model when one is published, else the global fallback, else
// nil. It never blocks.
func (r *Registry) CurrentFor(family string) *Version {
	v, _, ok := r.router.Route(family)
	if !ok {
		return nil
	}
	return v
}

// Routed returns the exact routing table: family key ("" = global) →
// serving version. Families currently falling back to the global model do
// not appear.
func (r *Registry) Routed() map[string]*Version {
	return r.router.Snapshot()
}

// IsCurrent reports whether v is the serving version of its routing
// target.
func (r *Registry) IsCurrent(v *Version) bool {
	cur, ok := r.router.Get(v.Meta.Family)
	return ok && cur == v
}

// ErrNoRollback is returned when no earlier version exists to roll back
// to.
var ErrNoRollback = errors.New("feedback: no earlier selector version to roll back to")

// ErrUnknownTarget is returned by Rollback for a family the registry has
// never seen — no route, no pin, no version in the history. It separates
// "nothing to roll back to" (a real target out of history, 409 material)
// from a typo'd family name (404 material), so operators aren't misled.
var ErrUnknownTarget = errors.New("feedback: unknown routing target")

// Rollback atomically moves family's current pointer ("" = the global
// model) to the newest earlier accepted version of the same family that
// was never itself rolled back. The serving version is marked bad, so
// after "publish v2 (bad) → rollback to v1 → auto-publish v3 (bad) →
// rollback" the registry serves v1 again, not the already rejected v2.
// Publishing again moves forward with a fresh ID.
//
// Rolling a family back past its only version removes the family's route
// entirely, so its queries fall back to the serving global model (which
// is returned) — the escape hatch for a bad first family model, which by
// design publishes ungated.
func (r *Registry) Rollback(family string) (*Version, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	cur, ok := r.router.Get(family)
	if !ok {
		if family != "" && !r.knownFamilyLocked(family) {
			return nil, ErrUnknownTarget
		}
		return nil, ErrNoRollback
	}
	if v := r.rollbackCandidateLocked(family, cur); v != nil {
		r.rolledBack[cur.ID] = true
		r.router.Set(family, v)
		return v, nil
	}
	if family != "" {
		if global, ok := r.router.Get(""); ok {
			r.rolledBack[cur.ID] = true
			r.router.Delete(family)
			r.pinLocked(family)
			return global, nil
		}
	}
	return nil, ErrNoRollback
}

// knownFamilyLocked reports whether the registry has ever dealt with the
// family: it is pinned to global, or some retained version (serving or
// not) was trained for it.
func (r *Registry) knownFamilyLocked(family string) bool {
	if r.pinnedToGlobal[family] {
		return true
	}
	for _, v := range r.versions {
		if v.Meta.Family == family {
			return true
		}
	}
	return false
}

// pinLocked records a fallback pin, keeping the set bounded: the oldest
// pins are forgotten past maxFallbackPins. Re-pinning a family refreshes
// its position; stale order entries (families unpinned by a Publish) are
// compacted away on the same pass.
func (r *Registry) pinLocked(family string) {
	r.pinnedToGlobal[family] = true
	order := r.pinOrder[:0]
	for _, f := range r.pinOrder {
		if f != family && r.pinnedToGlobal[f] {
			order = append(order, f)
		}
	}
	r.pinOrder = append(order, family)
	for len(r.pinOrder) > maxFallbackPins {
		delete(r.pinnedToGlobal, r.pinOrder[0])
		r.pinOrder = r.pinOrder[1:]
	}
}

// rollbackCandidateLocked returns the version Rollback would move
// family's current pointer cur to: the newest earlier accepted,
// never-rolled-back version of the same family — or nil when none
// exists. Rollback and pruneLocked share this scan so pruning can never
// evict the exact version a rollback would need.
func (r *Registry) rollbackCandidateLocked(family string, cur *Version) *Version {
	at := -1
	for i, v := range r.versions {
		if v == cur {
			at = i
			break
		}
	}
	for j := at - 1; j >= 0; j-- {
		v := r.versions[j]
		if v.Meta.Family != family || v.Meta.Decision == DecisionRejected || r.rolledBack[v.ID] {
			continue
		}
		return v
	}
	return nil
}

// FallbackPinned reports whether an operator rolled family back past its
// last version, pinning it to the global model until the next Publish for
// the family (e.g. a manual retrain).
func (r *Registry) FallbackPinned(family string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.pinnedToGlobal[family]
}

// RestoreFallbackPin re-applies a persisted fallback pin on restart.
func (r *Registry) RestoreFallbackPin(family string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.pinLocked(family)
}

// PersistState returns, as one snapshot under the registry lock, the
// routing table, each routed target's rollback chain (nearest candidate
// first, up to depth versions), and the sorted fallback pins — everything
// Sync writes to disk. The chain entries are exactly what successive
// Rollback calls would serve, so a restart restores not just the serving
// version but somewhere to roll back to.
func (r *Registry) PersistState(depth int) (map[string]*Version, map[string][]*Version, []string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	routed := r.router.Snapshot()
	chains := make(map[string][]*Version, len(routed))
	for f, cur := range routed {
		for len(chains[f]) < depth {
			v := r.rollbackCandidateLocked(f, cur)
			if v == nil {
				break
			}
			chains[f] = append(chains[f], v)
			cur = v
		}
	}
	pins := make([]string, 0, len(r.pinnedToGlobal))
	for f := range r.pinnedToGlobal {
		pins = append(pins, f)
	}
	sort.Strings(pins)
	return routed, chains, pins
}

// Versions returns the publication history, oldest first.
func (r *Registry) Versions() []*Version {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*Version(nil), r.versions...)
}
