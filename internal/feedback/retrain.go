package feedback

import (
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math"
	"sync"
	"time"

	"progressest/internal/selection"
)

// RetrainPolicy decides when the background retrainer wakes up. A retrain
// fires once BOTH thresholds are met: the corpus grew by at least
// MinNewExamples since the last training run AND at least MinInterval has
// elapsed since it.
type RetrainPolicy struct {
	// MinNewExamples is the corpus-growth trigger (default 256).
	MinNewExamples int
	// MinInterval is the age trigger (default 1 minute).
	MinInterval time.Duration
	// Poll is how often the policy is evaluated (default 5 seconds).
	Poll time.Duration
}

func (p RetrainPolicy) withDefaults() RetrainPolicy {
	if p.MinNewExamples <= 0 {
		p.MinNewExamples = 256
	}
	if p.MinInterval <= 0 {
		p.MinInterval = time.Minute
	}
	if p.Poll <= 0 {
		p.Poll = 5 * time.Second
	}
	return p
}

// QualityGate guards hot-swapping: a freshly trained version only
// replaces the serving one when its holdout L1 is within tolerance of (or
// beats) the serving version's error ON THE SAME HOLDOUT — both selectors
// are evaluated on the candidate's holdout slice, so the comparison never
// mixes metrics measured on different corpora. Rejected versions are
// recorded in the history (surfaced in GET /models) but never serve.
type QualityGate struct {
	// Disabled turns the gate off: every trained version is published.
	Disabled bool
	// Tolerance is the accepted relative regression: the candidate passes
	// when candL1 <= servingL1*(1+Tolerance) + gateAbsSlack. Zero means
	// the default 0.25 — generous, so only clear regressions (e.g. a
	// corpus poisoned by an anomalous traffic burst) are refused; a
	// negative value means STRICT (tolerance 0: the candidate must not be
	// worse than the serving model beyond the absolute slack).
	Tolerance float64
}

// gateAbsSlack is the gate's absolute slack, mirroring the paper's
// near-optimal tolerance (Section 6.6): near a tiny baseline error a
// purely relative bound would reject candidates within measurement noise
// of the serving model.
const gateAbsSlack = 0.01

// passes reports whether a candidate with L1 error candL1 stays within
// the gate's tolerance of a baseline measured at baseL1 on the same
// examples — the one inequality the holdout gate and the canary's live
// verdict share.
func (g QualityGate) passes(candL1, baseL1 float64) bool {
	return candL1 <= baseL1*(1+g.Tolerance)+gateAbsSlack
}

func (g QualityGate) withDefaults() QualityGate {
	switch {
	case g.Tolerance < 0:
		g.Tolerance = 0
	case g.Tolerance == 0:
		g.Tolerance = 0.25
	}
	return g
}

// RetrainerConfig wires a Retrainer.
type RetrainerConfig struct {
	// Selection are the training hyperparameters (candidate set, dynamic
	// features, MART options).
	Selection selection.Config
	// Seed, when non-empty, is a synthetic corpus mixed into every
	// training set (never into the holdout), so early versions trained on
	// a thin observed corpus do not forget the offline baseline.
	Seed []selection.Example
	// Policy drives the background loop.
	Policy RetrainPolicy
	// Gate guards hot-swaps (see QualityGate).
	Gate QualityGate
	// Persist, when non-nil, saves the serving versions (selector files +
	// manifest) after every run that published, so a restarted daemon
	// resumes from its last trained models.
	Persist *ModelDir
	// Drift, when non-nil together with DriftRetrain, adds the third
	// trigger next to size and age: when the serving version's windowed
	// observed error exceeds its holdout baseline (see DriftTracker), the
	// model is retrained with source "drift". The tracker can be wired
	// without DriftRetrain to monitor drift while leaving retraining to
	// the operator.
	Drift        *DriftTracker
	DriftRetrain bool
	// Canary, when non-nil with a positive Window, holds gate-accepted
	// versions from background (non-manual) runs back for live
	// confirmation before the hot-swap: the candidate shadow-scores on
	// the traffic its champion serves and is promoted only if its live
	// error stays within the gate tolerance of the champion's (see
	// Canary). Manual retrains always swap immediately.
	Canary *Canary
	// DriftRejectLimit is how many consecutive rejected drift retrains
	// the serving version gets before the retrainer concludes the model
	// itself went bad and auto-rolls it back. 0 means the default 3;
	// negative disables auto-rollback.
	DriftRejectLimit int
}

// TrainDecision is one bounded-history entry of the retrainer's
// publication decisions, so trigger provenance (size/age vs. drift vs.
// manual) outlives the registry's version pruning.
type TrainDecision struct {
	// At is the decision time.
	At time.Time `json:"at"`
	// Trigger is what caused the run: "manual", "auto" (size/age policy),
	// "drift" (observed-vs-predicted monitor), "canary" (a challenger's
	// live-traffic verdict) or "auto-rollback" (the consecutive-drift-
	// rejection breaker firing).
	Trigger string `json:"trigger"`
	// Version is the id of the trained version (accepted or rejected).
	Version int `json:"version"`
	// Decision is the quality-gate verdict (DecisionAccepted/Rejected).
	Decision string `json:"decision"`
	// HoldoutL1 is the candidate's holdout error; BaselineL1 the serving
	// version's error on the same holdout the gate compared against (0
	// when ungated).
	HoldoutL1  float64 `json:"holdout_l1"`
	BaselineL1 float64 `json:"baseline_l1,omitempty"`
	// ObservedL1 is the drift-window mean serving error that fired the
	// trigger (0 for non-drift triggers).
	ObservedL1 float64 `json:"observed_l1,omitempty"`
}

// maxDecisions bounds the retained decision history.
const maxDecisions = 64

// ErrEmptyCorpus is returned by Retrain when there is nothing to train
// on.
var ErrEmptyCorpus = errors.New("feedback: corpus has no examples to train on")

// holdoutStride holds out ~1/holdoutStride of the observed examples for
// version metadata once the corpus is large enough to afford it.
const (
	holdoutStride     = 5
	minHoldoutExample = 10
)

// isHoldout assigns an example to the holdout by a content hash of its
// feature vector rather than by corpus position: positions shift whenever
// retention drops an old segment, and a positional stride would then move
// rows the serving model TRAINED on into the holdout its successor is
// gated on — an in-sample-optimistic baseline that systematically rejects
// good candidates. Hash membership is a permanent property of the
// example, so every version trained under this rule has seen exactly the
// non-holdout side, and the gate's two evaluations stay out-of-sample for
// both selectors no matter how the corpus window slides.
func isHoldout(e *selection.Example) bool {
	h := fnv.New64a()
	var buf [8]byte
	for _, f := range e.Features {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	return h.Sum64()%holdoutStride == holdoutStride-1
}

// Retrainer trains fresh selector versions from the accumulated corpus
// and publishes them to a Registry — either on demand (Retrain) or from a
// background goroutine (Start/Stop) that compacts the corpus and trains
// on the size/age policy and the drift verdicts. Only one training runs
// at a time; serving is never blocked because publication is an atomic
// pointer swap.
type Retrainer struct {
	store *ExampleStore
	reg   *Registry
	cfg   RetrainerConfig

	trainMu sync.Mutex // serialises training runs
	// lastDriftAt is when the last drift-triggered training run started
	// (success or failure), rate-limiting the drift trigger to one run
	// per Policy.MinInterval — without it a persistently drifting model
	// (gate keeps rejecting, or traffic genuinely outruns the corpus)
	// would re-arm within a few queries and spin a full training run
	// every poll tick. Guarded by trainMu.
	lastDriftAt time.Time

	mu sync.Mutex // guards the policy state below
	// lastAppended is the store's lifetime append counter at the last
	// SUCCESSFUL training run. Measuring growth against appends (not net
	// corpus size) keeps the policy firing once retention pins Len() at
	// its cap; resetting it only on success means a failed run does not
	// consume the growth budget.
	lastAppended int
	lastAt       time.Time
	lastErr      error
	// decisions is the bounded ring of recent publication decisions,
	// newest last (see TrainDecision).
	decisions []TrainDecision
	// driftRejects counts CONSECUTIVE rejected drift retrains (immediate
	// gate rejections and full-window canary rejections alike); an
	// acceptance clears it, and reaching DriftRejectLimit trips the
	// auto-rollback breaker. Under r.mu so GET /models/drift never waits
	// behind a training run.
	driftRejects int

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewRetrainer wires a retrainer to its corpus and registry. The growth
// budget starts at zero, so a store reopened with a recovered corpus of
// at least MinNewExamples examples triggers a first training run on the
// next poll — a restarted daemon rebuilds its model from the corpus
// instead of serving v0 until fresh traffic accrues.
func NewRetrainer(store *ExampleStore, reg *Registry, cfg RetrainerConfig) *Retrainer {
	cfg.Policy = cfg.Policy.withDefaults()
	cfg.Gate = cfg.Gate.withDefaults()
	if cfg.DriftRejectLimit == 0 {
		cfg.DriftRejectLimit = 3
	}
	return &Retrainer{
		store: store,
		reg:   reg,
		cfg:   cfg,
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Retrain synchronously trains on the current corpus (plus the optional
// synthetic seed) and publishes the result as a new version tagged with
// source. With canary confirmation enabled, a non-manual run whose
// candidate entered confirmation returns a nil version (the verdict
// lands later in the decision ring).
func (r *Retrainer) Retrain(source string) (*Version, error) {
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	return r.trainLocked(source, false)
}

// tick runs one background poll: a compaction pass while family quotas
// are on, then the ripe canary verdicts, then one training pass for
// whichever triggers are due. A compaction failure is only recorded,
// like a drift-only pass's, so it never clears a training failure.
func (r *Retrainer) tick() {
	if r.store.opts.FamilyQuota > 0 {
		if _, err := r.store.Compact(); err != nil {
			r.mu.Lock()
			r.lastErr = err
			r.mu.Unlock()
		}
	}
	due := r.due()
	_, drifted := r.driftDue()
	canaryDue := r.cfg.Canary.resolvable(time.Now())
	if !due && !drifted && !canaryDue {
		return
	}
	r.trainMu.Lock()
	defer r.trainMu.Unlock()
	// Resolve ripe challengers BEFORE this tick's training: a promoted
	// challenger becomes the serving baseline the new candidates gate
	// (and canary) against.
	r.resolveCanariesLocked()
	// Re-check the policy AFTER winning trainMu, so an auto tick queued
	// behind a concurrent manual retrain does not immediately train again
	// on the same corpus. A failure rearms the age gate (see trainLocked),
	// so it is retried once MinInterval passes and surfaced via LastError.
	source := ""
	if r.due() {
		source = "auto"
	}
	r.trainLocked(source, true)
}

// trainLocked is the one training pass; trainMu must be held. It takes
// one corpus capture and fits the model at most once: for source "auto"
// (size/age policy) or "manual", and — with drift set — for a serving
// version that is drifted past its cooldown. A fit that is both trains
// under trigger "drift", carrying the observed L1 and the drift
// bookkeeping, so a tick both size/age- and drift-due never fits twice.
// Source "" runs the drift part alone; that pass only records failures,
// so it never hides an earlier size/age failure from LastError.
// trainLocked returns the size/age or manual run's version.
//
// The parallelism is inside the fit: selection.Train fits a selector's
// kinds on every core.
func (r *Retrainer) trainLocked(source string, drift bool) (*Version, error) {
	// Read after winning trainMu: a concurrent manual retrain may have
	// just replaced the drifted version, whose window is then no longer
	// read. The cooldown mirrors the size/age age gate — the window is
	// left alone, so a held verdict simply re-fires on the first tick past
	// MinInterval — and is checked before the corpus read, so a
	// drift-only pass that is cooling down costs no snapshot.
	var st DriftState
	drifted := false
	if drift {
		st, drifted = r.driftDue()
		drifted = drifted && time.Since(r.lastDriftAt) >= r.cfg.Policy.MinInterval
	}
	if source == "" && !drifted {
		return nil, nil
	}
	// Capture the append counter BEFORE the snapshot: examples landing in
	// between are then trained on without being charged to the budget (a
	// harmless slightly-early next retrain) instead of charged without
	// being trained on (which would starve low-traffic retraining).
	appended := r.store.Appended()
	observed, err := r.store.Snapshot()
	if err != nil {
		r.mu.Lock()
		if source != "" {
			r.lastAt = time.Now()
		}
		r.lastErr = err
		r.mu.Unlock()
		return nil, err
	}
	if len(observed)+len(r.cfg.Seed) == 0 {
		if drifted {
			// Retention dropped every example: reset so the verdict waits
			// for fresh evidence.
			r.cfg.Drift.Reset()
		}
		if source == "" {
			return nil, nil
		}
		return nil, ErrEmptyCorpus
	}
	trigger := source
	if drifted {
		// Charged whether the run succeeds or fails: a persistent
		// training failure must not spin either.
		r.lastDriftAt = time.Now()
		trigger = "drift"
	}
	var v *Version
	published := false
	f, err := r.fitTarget(observed, r.cfg.Seed)
	if err == nil {
		v = r.publishFit(f, trigger, st.ObservedL1)
		published = v != nil && v.Meta.Decision == DecisionAccepted
		if drifted && published {
			// The new version serves with a window of its own.
			r.clearDriftRejects()
		} else if drifted {
			// The judged version keeps serving — rejected by the gate, or
			// the candidate was diverted into canary confirmation (v ==
			// nil; the reject streak then moves only on the eventual live
			// verdict). Its window is reset, forcing MinSamples fresh
			// observations before the verdict can fire again, so a model
			// that cannot be improved does not spin a retrain per poll
			// tick.
			r.cfg.Drift.Reset()
			if v != nil && r.bumpDriftRejects() {
				published = r.autoRollbackLocked(st.ObservedL1)
			}
		}
	}
	if source != "" {
		r.mu.Lock()
		// A failed run only rearms the age gate (retry after MinInterval,
		// so a persistent failure cannot spin training every poll tick);
		// the growth budget is spent on success alone.
		r.lastAt = time.Now()
		if err == nil {
			r.lastAppended = appended
		}
		r.mu.Unlock()
	}
	errs := err
	if r.cfg.Persist != nil && ((source != "" && err == nil) || published) {
		errs = errors.Join(errs, r.cfg.Persist.Sync(r.reg))
	}
	if source != "" || errs != nil {
		r.mu.Lock()
		r.lastErr = errs
		r.mu.Unlock()
	}
	if source == "" {
		return nil, nil
	}
	return v, err
}

// splitHoldout holds out a deterministic, position-independent slice of
// the observed examples for quality metadata (see isHoldout); with a thin
// corpus — or a hash split that degenerates to one side — evaluation is
// in-sample, which inSample reports so the version is never mistaken for
// a fairly holdout-evaluated gate baseline later.
func splitHoldout(observed []selection.Example) (train, holdout []selection.Example, inSample bool) {
	if len(observed) < minHoldoutExample {
		return observed, observed, true
	}
	train = make([]selection.Example, 0, len(observed))
	for i := range observed {
		if isHoldout(&observed[i]) {
			holdout = append(holdout, observed[i])
		} else {
			train = append(train, observed[i])
		}
	}
	if len(holdout) == 0 || len(train) == 0 {
		return observed, observed, true
	}
	return train, holdout, false
}

// targetFit is the side-effect-free half of a training run: everything
// fitTarget computes before the registry is consulted. A canary
// challenger is held in this form until live traffic confirms it.
type targetFit struct {
	sel        *selection.Selector
	holdout    []selection.Example
	candEv     selection.Evaluation
	inSample   bool
	corpusSize int
}

// fitTarget splits the holdout, trains the selector and evaluates the
// candidate. It is pure with respect to the retrainer: no registry reads
// or writes, no shared state.
func (r *Retrainer) fitTarget(observed, seed []selection.Example) (*targetFit, error) {
	trainSet, holdout, inSample := splitHoldout(observed)
	full := make([]selection.Example, 0, len(seed)+len(trainSet))
	full = append(full, seed...)
	full = append(full, trainSet...)
	sel, err := selection.Train(full, r.cfg.Selection)
	if err != nil {
		return nil, err
	}
	return &targetFit{
		sel:        sel,
		holdout:    holdout,
		candEv:     selection.Evaluate(sel, holdout),
		inSample:   inSample,
		corpusSize: len(observed),
	}, nil
}

// publishFit runs the quality gate on a completed fit and publishes or
// records the version: the candidate is published (hot-swapped) when it
// beats or stays within tolerance of the serving version, evaluated on
// the same holdout; otherwise it is recorded as rejected.
func (r *Retrainer) publishFit(f *targetFit, source string, observedL1 float64) *Version {
	meta := VersionMeta{
		TrainedAt:  time.Now(),
		CorpusSize: f.corpusSize,
		HoldoutL1:  f.candEv.AvgL1,
		Source:     source,
	}
	if !f.inSample {
		// In-sample evaluations record HoldoutN 0: the L1 stays visible
		// in /models, but the version must never pass as a fair
		// (out-of-sample) gate baseline once the corpus grows.
		meta.HoldoutN = f.candEv.N
	}
	// The gate only fires on a fair comparison, which needs BOTH sides
	// out-of-sample on the holdout. A baseline qualifies when it was
	// itself holdout-evaluated under this trainer's protocol
	// (Meta.HoldoutN > 0), or when it is v0, which was never trained on
	// anything: seed selectors — and versions restored from them — were
	// trained on the FULL corpus, hash-holdout rows included, so their
	// error on the candidate's holdout is in-sample-optimistic and would
	// systematically reject good first retrains. Symmetrically, an
	// in-sample candidate (degenerate split) carries an optimistically
	// biased L1 of its own and must not use it to displace an honestly
	// measured serving model.
	serving := r.reg.Current()
	if (serving.Meta.HoldoutN > 0 || serving.IsV0()) && !f.inSample && !r.cfg.Gate.Disabled && f.candEv.N > 0 {
		servEv := selection.Evaluate(serving.Selector, f.holdout)
		meta.BaselineL1 = servEv.AvgL1
		if servEv.N > 0 && !r.cfg.Gate.passes(f.candEv.AvgL1, servEv.AvgL1) {
			v := r.reg.Record(f.sel, meta)
			r.recordDecision(v, source, observedL1)
			return v
		}
	}
	// Canary divert: with confirmation enabled, a background candidate
	// that PASSED the holdout gate still does not hot-swap — it becomes a
	// pending challenger that must confirm on live traffic first (see
	// canary.go) against the serving champion, v0 included. Manual
	// retrains bypass it: the operator asked for the swap.
	if r.cfg.Canary.enabled() && source != "manual" {
		r.cfg.Canary.propose(f, meta, source, observedL1, serving, time.Now())
		r.appendDecision(TrainDecision{
			At:         meta.TrainedAt,
			Trigger:    source,
			Decision:   DecisionCanary,
			HoldoutL1:  meta.HoldoutL1,
			BaselineL1: meta.BaselineL1,
			ObservedL1: observedL1,
		})
		return nil
	}
	v := r.reg.Publish(f.sel, meta)
	r.recordDecision(v, source, observedL1)
	return v
}

// recordDecision appends one entry to the bounded decision ring.
func (r *Retrainer) recordDecision(v *Version, trigger string, observedL1 float64) {
	r.appendDecision(TrainDecision{
		At:         v.Meta.TrainedAt,
		Trigger:    trigger,
		Version:    v.ID,
		Decision:   v.Meta.Decision,
		HoldoutL1:  v.Meta.HoldoutL1,
		BaselineL1: v.Meta.BaselineL1,
		ObservedL1: observedL1,
	})
}

// appendDecision pushes one entry onto the bounded decision ring.
func (r *Retrainer) appendDecision(d TrainDecision) {
	r.mu.Lock()
	r.decisions = append(r.decisions, d)
	if len(r.decisions) > maxDecisions {
		r.decisions = append(r.decisions[:0], r.decisions[len(r.decisions)-maxDecisions:]...)
	}
	r.mu.Unlock()
}

// Decisions returns the retained publication decisions, oldest first
// (empty, not nil, before the first).
func (r *Retrainer) Decisions() []TrainDecision {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]TrainDecision{}, r.decisions...)
}

// driftDue returns the serving version's standing when its verdict is
// true and drift-triggered retraining is enabled.
func (r *Retrainer) driftDue() (DriftState, bool) {
	if r.cfg.Drift == nil || !r.cfg.DriftRetrain {
		return DriftState{}, false
	}
	return r.cfg.Drift.Drifted()
}

// resolveCanariesLocked delivers the verdict on a ripe challenger
// (confirmation window full, or expired waiting for traffic). Requires
// trainMu: a promotion is a publication and must not interleave with a
// concurrent training run's gate reads.
func (r *Retrainer) resolveCanariesLocked() {
	st := r.cfg.Canary.take(time.Now())
	if st == nil {
		return
	}
	published := false
	switch {
	case r.reg.Current() != st.champion:
		// The champion the challenger shadow-scored against must still be
		// serving: a manual retrain or rollback in the meantime makes the
		// comparison moot — record the challenger as rejected (the history
		// keeps it inspectable) and move on.
		v := r.reg.Record(st.fit.sel, st.meta)
		r.recordDecision(v, "canary", st.observedL1)
	case st.n >= r.cfg.Canary.Window():
		champMean := st.champSum / float64(st.n)
		chalMean := st.chalSum / float64(st.n)
		// The live comparison supersedes the training-time baseline:
		// record what the verdict was actually judged against.
		st.meta.BaselineL1 = champMean
		if r.cfg.Gate.passes(chalMean, champMean) {
			v := r.reg.Publish(st.fit.sel, st.meta)
			if st.source == "drift" {
				r.clearDriftRejects()
			}
			r.recordDecision(v, "canary", chalMean)
			published = true
			break
		}
		// Full window and live traffic disagreed with the holdout: a
		// genuine quality rejection, so it counts against the drift
		// breaker exactly like an immediate gate rejection.
		v := r.reg.Record(st.fit.sel, st.meta)
		r.recordDecision(v, "canary", chalMean)
		if st.source == "drift" && r.bumpDriftRejects() {
			published = r.autoRollbackLocked(st.observedL1)
		}
	default:
		// Expired before the window filled: traffic dried up, so there is
		// no quality judgement either way — rejected without moving the
		// drift breaker.
		v := r.reg.Record(st.fit.sel, st.meta)
		r.recordDecision(v, "canary", st.observedL1)
	}
	if published && r.cfg.Persist != nil {
		if err := r.cfg.Persist.Sync(r.reg); err != nil {
			r.mu.Lock()
			r.lastErr = err
			r.mu.Unlock()
		}
	}
}

// Rollback moves the serving pointer back to the previous accepted
// version exactly as Registry.Rollback does, then settles what hangs off
// it: the pending challenger is dropped (it was shadow-scoring against
// the rolled-off model) and the version now serving starts a fresh drift
// window. The operator's rollback and the auto-rollback breaker both
// come here. It does not take trainMu, so an operator rollback never
// waits behind a training run.
func (r *Retrainer) Rollback() (*Version, error) {
	v, err := r.reg.Rollback()
	if err != nil {
		return nil, err
	}
	r.cfg.Canary.Drop()
	if r.cfg.Drift != nil {
		r.cfg.Drift.Reset()
	}
	return v, nil
}

// autoRollbackLocked trips the drift breaker: DriftRejectLimit
// consecutive drift-triggered retrains produced nothing the gate (or the
// canary) would accept, so the live corpus cannot currently beat the
// serving model — yet that model keeps drifting. The champion itself is
// the problem; retraining harder will not fix it. Roll back exactly as
// an operator rollback would (see Rollback) and record the decision.
// Requires trainMu.
func (r *Retrainer) autoRollbackLocked(observedL1 float64) bool {
	v, err := r.Rollback()
	d := TrainDecision{
		At:         time.Now(),
		Trigger:    "auto-rollback",
		ObservedL1: observedL1,
	}
	if err != nil {
		// Nothing to fall back to (no accepted predecessor). The breaker
		// still resets — re-tripping it every K rejections would only
		// spam the decision ring.
		d.Decision = "rollback_unavailable"
	} else {
		d.Decision = "rolled_back"
		d.Version, d.HoldoutL1 = v.ID, v.Meta.HoldoutL1
	}
	r.appendDecision(d)
	return err == nil
}

// clearDriftRejects resets the consecutive-rejection streak (an accepted
// drift retrain proves the corpus can still beat serving).
func (r *Retrainer) clearDriftRejects() {
	r.mu.Lock()
	r.driftRejects = 0
	r.mu.Unlock()
}

// bumpDriftRejects advances the consecutive gate-rejected drift-retrain
// streak and reports whether the auto-rollback breaker tripped (the
// streak resets when it does). A negative DriftRejectLimit disables the
// breaker.
func (r *Retrainer) bumpDriftRejects() bool {
	if r.cfg.DriftRejectLimit < 0 {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.driftRejects++
	if r.driftRejects >= r.cfg.DriftRejectLimit {
		r.driftRejects = 0
		return true
	}
	return false
}

// DriftRejects returns the consecutive gate-rejected drift-retrain
// streak.
func (r *Retrainer) DriftRejects() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.driftRejects
}

// LastError returns the most recent training failure (nil after a fully
// successful run).
func (r *Retrainer) LastError() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lastErr
}

// due reports whether the policy triggers a retrain now.
func (r *Retrainer) due() bool {
	r.mu.Lock()
	lastAppended, lastAt := r.lastAppended, r.lastAt
	r.mu.Unlock()
	if r.store.Appended()-lastAppended < r.cfg.Policy.MinNewExamples {
		return false
	}
	return time.Since(lastAt) >= r.cfg.Policy.MinInterval
}

// Start launches the background loop, one tick per Policy.Poll. It is
// idempotent.
func (r *Retrainer) Start() {
	r.startOnce.Do(func() {
		go func() {
			defer close(r.done)
			ticker := time.NewTicker(r.cfg.Policy.Poll)
			defer ticker.Stop()
			for {
				select {
				case <-r.stop:
					return
				case <-ticker.C:
					r.tick()
				}
			}
		}()
	})
}

// Stop drains the background loop and waits for it to exit. A retrain in
// flight completes first. Stop is idempotent and safe without Start.
func (r *Retrainer) Stop() {
	r.stopOnce.Do(func() { close(r.stop) })
	r.startOnce.Do(func() { close(r.done) }) // never started: nothing to drain
	<-r.done
}
