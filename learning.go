package progressest

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"time"

	"progressest/internal/feedback"
	"progressest/internal/mart"
	"progressest/internal/selection"
)

// LearningConfig configures the continuous-learning loop: where the
// harvested corpus lives on disk, when the background retrainer fires,
// and what it trains.
type LearningConfig struct {
	// Dir is the corpus directory (created if missing). Required.
	Dir string
	// Selector are the training hyperparameters for retrained versions.
	Selector SelectorConfig
	// MinNewExamples and MinInterval gate automatic retraining: a retrain
	// fires once the corpus grew by MinNewExamples since the last training
	// run AND MinInterval elapsed (defaults 256 examples / 1 minute).
	MinNewExamples int
	MinInterval    time.Duration
	// Poll is how often the retrain policy is evaluated. It defaults to
	// 5s, capped at MinInterval when that is shorter — a sub-5s
	// -retrain-every must not silently wait for a 5s tick.
	Poll time.Duration
	// DisableBackground turns the background retrainer off entirely;
	// Retrain can still be called manually (e.g. via POST /models/retrain).
	DisableBackground bool
	// SeedExamples, when non-empty, is a synthetic corpus (e.g. a batch
	// Harvest) mixed into every training set so early versions trained on
	// thin live traffic keep the offline baseline.
	SeedExamples []Example
	// SeedSelector, when non-nil, is published as the first version
	// (source "seed") so queries are served by a model before the first
	// retrain completes.
	SeedSelector *Selector
	// MinObservations filters harvested pipelines with fewer counter
	// snapshots, exactly like the batch harvest (default 8).
	MinObservations int
	// MaxSegmentBytes and MaxExamples bound the on-disk corpus (defaults
	// 4 MiB per segment, 100000 examples; oldest segments are dropped).
	MaxSegmentBytes int64
	MaxExamples     int
	// FamilyQuota is a per-family retention floor: when retention or
	// compaction must shed examples, every tagged workload family keeps at
	// least this many of its newest examples on disk (quota outranks
	// MaxExamples — a corpus where every example is quota-protected stops
	// shrinking). 0 disables quotas; untagged examples are never
	// protected. With a quota set, every background retrainer poll (see
	// Poll) first compacts the corpus: sealed segments are rewritten in
	// place of whole-segment drops, downsampling the largest (family,
	// plan-signature) groups first so a burst family's bulk is shed while
	// sparse families survive intact. DisableBackground turns compaction
	// off with the retrainer.
	FamilyQuota int
	// CorpusCacheBytes bounds the sealed-segment decode cache: immutable
	// corpus segments keep their decoded examples in memory (LRU by
	// on-disk bytes), so a warm retrain re-decodes only the active tail.
	// 0 means the 64 MiB default; negative disables caching.
	CorpusCacheBytes int64
	// FamilyModels additionally trains one selector per workload family
	// with at least MinFamilyExamples harvested examples (default 40).
	// Queries routed by family (MonitorOptions.RouteByFamily, which
	// EngineConfig.RouteByFamily sets engine-wide) are then served by
	// their family's version, falling back to the global model for
	// families without one.
	FamilyModels      bool
	MinFamilyExamples int
	// GateTolerance is the retrain-quality gate's accepted relative
	// regression (zero means the default, 0.25; negative means strict —
	// no relative regression allowed): a freshly trained version only
	// hot-swaps in when its holdout L1 is at most (1+GateTolerance)× the
	// serving version's error on the same holdout, plus a 0.01 absolute
	// slack; otherwise it is recorded as rejected (visible in GET
	// /models) and the old version keeps serving. DisableGate publishes
	// every trained version unconditionally.
	GateTolerance float64
	DisableGate   bool
	// DisablePersist keeps trained versions in memory only. By default
	// every accepted version is serialized under Dir/models (atomic
	// temp+rename writes), and a restarted daemon restores the serving
	// global and family models from there instead of falling back to
	// fixed estimators.
	DisablePersist bool
	// DriftWindow, DriftMinSamples, DriftRatio and DriftAbsSlack tune the
	// observed-vs-predicted drift monitor: per serving version, the mean
	// L1 error its estimator choices incur on the last DriftWindow
	// harvested pipelines it served (default 256) is compared against
	// the version's recorded holdout baseline once at least
	// DriftMinSamples observations accrued (default 32); the target counts
	// as drifted when observed > baseline*DriftRatio + DriftAbsSlack
	// (defaults 1.5 and 0.01; a negative slack means zero).
	DriftWindow     int
	DriftMinSamples int
	DriftRatio      float64
	DriftAbsSlack   float64
	// DisableDriftRetrain keeps drift tracking on (GET /models/drift,
	// DriftStatus) but never auto-retrains on a drift verdict — the
	// operator decides. By default a drifted target is retrained on its
	// own, with trigger "drift", leaving healthy targets' models alone.
	DisableDriftRetrain bool
	// CanaryWindow enables champion/challenger serving: a gate-accepted
	// version from a background retrain shadow-scores on CanaryWindow live
	// harvested pipelines before it may hot-swap, and is rejected when its
	// live error exceeds the champion's by more than the quality gate's
	// tolerance. 0 (the default) disables confirmation — accepted versions
	// hot-swap immediately. Manual retrains always bypass the canary.
	CanaryWindow int
	// CanaryMaxAge bounds how long a challenger may wait for its window
	// before being rejected for lack of traffic (default 5 minutes).
	CanaryMaxAge time.Duration
	// DriftRejectLimit is the auto-rollback breaker: after this many
	// CONSECUTIVE drift-triggered retrains of one target were rejected (by
	// the quality gate or by canary confirmation) while the target kept
	// drifting, the serving version itself is judged bad and the target is
	// rolled back to its previous accepted version (a family with no
	// earlier version is pinned to the global fallback), exactly as POST
	// /models/rollback would. 0 means the default, 3; negative disables
	// the breaker.
	DriftRejectLimit int
}

// ModelVersion is the wire-friendly description of one published selector
// version.
type ModelVersion struct {
	ID         int       `json:"id"`
	TrainedAt  time.Time `json:"trained_at"`
	CorpusSize int       `json:"corpus_size"`
	HoldoutL1  float64   `json:"holdout_l1"`
	HoldoutN   int       `json:"holdout_n"`
	Source     string    `json:"source"`
	// Family is the routing target the version was trained for ("" = the
	// global model).
	Family string `json:"family,omitempty"`
	// Decision is the retrain-quality gate's verdict: "accepted" versions
	// were hot-swapped into serving, "rejected" ones stay history-only.
	Decision string `json:"decision,omitempty"`
	// BaselineL1 is the serving version's L1 on the candidate's holdout
	// that the gate compared against (0 when there was no baseline).
	BaselineL1 float64 `json:"baseline_l1,omitempty"`
	// Current marks the version serving its routing target right now.
	Current bool `json:"current"`
}

// DriftStatus is one routing target's observed-vs-predicted standing:
// the windowed mean L1 error the serving version's estimator choices
// incur on live traffic, against the holdout error predicted for the
// version at training time.
type DriftStatus struct {
	// Family is the routing target ("" = the global model).
	Family string `json:"family"`
	// Version is the serving version the observations are accounted
	// against.
	Version int `json:"version"`
	// BaselineL1 is the version's holdout L1 (the predicted error);
	// BaselineN the holdout size it was measured on. BaselineN 0 means no
	// fair baseline exists (seed/restored models) and Drifted stays false.
	BaselineL1 float64 `json:"baseline_l1"`
	BaselineN  int     `json:"baseline_n"`
	// ObservedL1 and ObservedP90 are the mean and 90th percentile L1
	// error over the current window of harvested pipelines served by the
	// version.
	ObservedL1  float64 `json:"observed_l1"`
	ObservedP90 float64 `json:"observed_p90"`
	// Samples is the number of observations in the window (at most
	// Window); a verdict needs at least MinSamples of them.
	Samples    int `json:"samples"`
	Window     int `json:"window"`
	MinSamples int `json:"min_samples"`
	// Ratio is the configured observed/predicted inflation bound.
	Ratio float64 `json:"ratio"`
	// Drifted is the verdict: observed > baseline*Ratio + slack with a
	// fair baseline and enough samples.
	Drifted bool `json:"drifted"`
	// Since is when the current verdict first became true (zero while not
	// drifted).
	Since time.Time `json:"since"`
	// LastTrigger and LastDecision are the most recent retrain
	// provenance for this target from the decision history ("" before any
	// decision): what fired the last training run ("manual", "auto",
	// "drift", "canary", "auto-rollback") and how the quality gate ruled.
	LastTrigger  string `json:"last_trigger,omitempty"`
	LastDecision string `json:"last_decision,omitempty"`
	// RejectStreak counts consecutive gate-rejected drift retrains of this
	// target; at LearningConfig.DriftRejectLimit the auto-rollback breaker
	// trips and the streak resets.
	RejectStreak int `json:"reject_streak,omitempty"`
}

// CanaryStatus is one pending challenger in champion/challenger
// confirmation, surfaced in GET /models as "canaries".
type CanaryStatus = feedback.CanaryState

// RetrainDecision is one entry of the retrainer's bounded decision
// history: which trigger trained which routing target, and how the
// quality gate ruled.
type RetrainDecision = feedback.TrainDecision

// HarvestStats counts the learning loop's harvesting activity.
type HarvestStats = feedback.HarvestStats

// CorpusStats describes the on-disk corpus shape and the standing of the
// sealed-segment decode cache — what the next retrain is about to pay
// for. Surfaced in GET /models as "corpus".
type CorpusStats = feedback.CorpusStats

// Learning is the continuous-learning subsystem: an on-disk corpus of
// examples harvested from finished queries, a background retrainer, and a
// versioned selector registry with atomic hot-swap. Attach it to queries
// via MonitorOptions.Learning (which both feeds the harvester and serves
// from the current version) and to the HTTP daemon via NewServer, which
// then exposes /models, /models/retrain and /models/rollback.
type Learning struct {
	store  *feedback.ExampleStore
	harv   *feedback.Harvester
	reg    *feedback.Registry
	ret    *feedback.Retrainer
	drift  *feedback.DriftTracker
	canary *feedback.Canary   // nil when canary confirmation is disabled
	models *feedback.ModelDir // nil when persistence is disabled
}

// OpenLearning opens (or creates) the corpus directory and starts the
// background retrainer (unless disabled). Close releases both.
func OpenLearning(cfg LearningConfig) (*Learning, error) {
	if cfg.Dir == "" {
		return nil, errors.New("progressest: LearningConfig.Dir is required")
	}
	store, err := feedback.OpenStore(cfg.Dir, feedback.StoreOptions{
		MaxSegmentBytes: cfg.MaxSegmentBytes,
		MaxExamples:     cfg.MaxExamples,
		FamilyQuota:     cfg.FamilyQuota,
		CacheBytes:      cfg.CorpusCacheBytes,
	})
	if err != nil {
		return nil, err
	}
	reg := feedback.NewRegistry()
	if cfg.SeedSelector != nil {
		reg.Publish(cfg.SeedSelector.inner, feedback.VersionMeta{
			TrainedAt: time.Now(),
			Source:    "seed",
		})
	}
	// Restore AFTER the seed publication: persisted versions are newer
	// evidence than a seed model, so they win the routing table.
	var models *feedback.ModelDir
	if !cfg.DisablePersist {
		models, err = feedback.OpenModelDir(filepath.Join(cfg.Dir, "models"))
		if err != nil {
			store.Close()
			return nil, err
		}
		if _, err := models.Restore(reg); err != nil {
			store.Close()
			return nil, err
		}
	}
	var seed []selection.Example
	if len(cfg.SeedExamples) > 0 {
		seed = append(seed, cfg.SeedExamples...)
	}
	poll := cfg.Poll
	if poll <= 0 && cfg.MinInterval > 0 && cfg.MinInterval < 5*time.Second {
		poll = cfg.MinInterval
	}
	drift := feedback.NewDriftTracker(reg, feedback.DriftConfig{
		Window:     cfg.DriftWindow,
		MinSamples: cfg.DriftMinSamples,
		Ratio:      cfg.DriftRatio,
		AbsSlack:   cfg.DriftAbsSlack,
	})
	var canary *feedback.Canary
	if cfg.CanaryWindow > 0 {
		canary = feedback.NewCanary(feedback.CanaryConfig{
			Window: cfg.CanaryWindow,
			MaxAge: cfg.CanaryMaxAge,
		})
	}
	ret := feedback.NewRetrainer(store, reg, feedback.RetrainerConfig{
		Selection: selectionConfig(cfg.Selector),
		Seed:      seed,
		Policy: feedback.RetrainPolicy{
			MinNewExamples: cfg.MinNewExamples,
			MinInterval:    cfg.MinInterval,
			Poll:           poll,
		},
		Gate: feedback.QualityGate{
			Disabled:  cfg.DisableGate,
			Tolerance: cfg.GateTolerance,
		},
		FamilyModels:      cfg.FamilyModels,
		MinFamilyExamples: cfg.MinFamilyExamples,
		Persist:           models,
		Drift:             drift,
		DriftRetrain:      !cfg.DisableDriftRetrain,
		Canary:            canary,
		DriftRejectLimit:  cfg.DriftRejectLimit,
	})
	if !cfg.DisableBackground {
		ret.Start()
	}
	return &Learning{
		store:  store,
		harv:   feedback.NewHarvester(store, cfg.MinObservations, drift, canary),
		reg:    reg,
		ret:    ret,
		drift:  drift,
		canary: canary,
		models: models,
	}, nil
}

// CorpusSize returns the number of examples currently retained on disk.
func (l *Learning) CorpusSize() int { return l.store.Len() }

// HarvestStats returns the harvesting counters.
func (l *Learning) HarvestStats() HarvestStats { return l.harv.Stats() }

// CorpusStats reports the corpus shape (segments, bytes, per-family
// example counts) and the decode cache's hit/miss counters. Cheap: it
// reads the in-memory segment indexes, never the disk.
func (l *Learning) CorpusStats() CorpusStats { return l.store.Stats() }

// Retrain synchronously trains new selector versions on the accumulated
// corpus — the global model, plus one per sufficiently represented family
// when FamilyModels is on — and hot-swaps in every version that passes
// the quality gate. Serving is never blocked: queries keep using the
// previous versions until the atomic swap. The returned version is the
// global one; check its Decision — a rejected version did NOT replace the
// serving model.
func (l *Learning) Retrain() (ModelVersion, error) {
	v, err := l.ret.Retrain("manual")
	if err != nil {
		return ModelVersion{}, err
	}
	return l.modelVersion(v), nil
}

// Rollback atomically reverts the global model to the previously
// published version. A rollback that applied but could not persist the
// routing table reports the failure via PersistError.
func (l *Learning) Rollback() (ModelVersion, error) {
	v, _, err := l.rollback("")
	return v, err
}

// RollbackFamily atomically reverts one family's model to its previously
// published version. A family serving from the global fallback (or with
// only one version) has nothing to roll back to.
func (l *Learning) RollbackFamily(family string) (ModelVersion, error) {
	v, _, err := l.rollback(family)
	return v, err
}

// rollback reverts one routing target. persistErr reports a rollback
// that APPLIED in memory but failed to rewrite the on-disk manifest —
// the caller must surface it (a restart would resume from the previously
// persisted routing table), distinctly from err, which means the
// rollback itself did not happen.
func (l *Learning) rollback(family string) (v ModelVersion, persistErr, err error) {
	rv, err := l.ret.Rollback(family)
	if err != nil {
		return ModelVersion{}, nil, err
	}
	if l.models != nil {
		// The routing table changed; refresh the persisted manifest so a
		// restart resumes from the rolled-back-to version. The rollback IS
		// applied even when the write fails — returning it as err would
		// read as "rollback failed" and bait a retry that walks back one
		// version further than intended — so a failure travels separately
		// as persistErr (and via PersistError / GET /models) until a later
		// successful Sync rewrites the manifest and repairs the staleness.
		persistErr = l.models.Sync(l.reg)
	}
	return l.modelVersion(rv), persistErr, nil
}

// PersistError returns the most recent failure to persist the serving
// routing table (nil once a later persist succeeds, which rewrites the
// whole manifest). While non-nil, a daemon restart would resume from the
// last successfully persisted models rather than the serving ones.
func (l *Learning) PersistError() error {
	if l.models == nil {
		return nil
	}
	return l.models.LastSyncError()
}

// Current returns the serving global version; ok is false before any
// version exists.
func (l *Learning) Current() (v ModelVersion, ok bool) {
	cur := l.reg.Current()
	if cur == nil {
		return ModelVersion{}, false
	}
	return l.modelVersion(cur), true
}

// FamilyVersions returns the per-family routing table: workload family →
// id of the family-trained version currently serving it. Families falling
// back to the global model do not appear.
func (l *Learning) FamilyVersions() map[string]int {
	out := make(map[string]int)
	for f, v := range l.reg.Routed() {
		if f != "" {
			out[f] = v.ID
		}
	}
	return out
}

// Versions returns the publication history, oldest first, with the
// serving version flagged.
func (l *Learning) Versions() []ModelVersion {
	vs := l.reg.Versions()
	out := make([]ModelVersion, len(vs))
	for i, v := range vs {
		out[i] = l.modelVersion(v)
	}
	return out
}

// LastTrainingError returns the most recent failure of the background
// loop (training or compaction), or nil.
func (l *Learning) LastTrainingError() error { return l.ret.LastError() }

// DriftStatus returns the observed-vs-predicted standing of every routing
// target that served at least one harvested query, sorted by target
// (global first), with the latest retrain provenance for each attached.
func (l *Learning) DriftStatus() []DriftStatus {
	out, _ := l.driftReport()
	return out
}

// driftReport returns DriftStatus and the decision history it was joined
// with, from one read of each.
func (l *Learning) driftReport() ([]DriftStatus, []RetrainDecision) {
	decisions := l.Decisions()
	states := l.drift.Statuses()
	rejects := l.ret.DriftRejects()
	cfg := l.drift.Config()
	out := make([]DriftStatus, len(states))
	for i, st := range states {
		out[i] = DriftStatus{
			Family:       st.Target,
			Version:      st.Version,
			BaselineL1:   st.BaselineL1,
			BaselineN:    st.BaselineN,
			ObservedL1:   st.ObservedL1,
			ObservedP90:  st.ObservedP90,
			Samples:      st.Samples,
			Window:       cfg.Window,
			MinSamples:   cfg.MinSamples,
			Ratio:        cfg.Ratio,
			Drifted:      st.Drifted,
			Since:        st.Since,
			RejectStreak: rejects[st.Target],
		}
		// The ring is oldest-first; the last match is the target's most
		// recent decision.
		for _, d := range decisions {
			if d.Family == st.Target {
				out[i].LastTrigger = d.Trigger
				out[i].LastDecision = d.Decision
			}
		}
	}
	return out, decisions
}

// Canaries returns the challengers currently in champion/challenger
// confirmation, sorted by family (empty when canary serving is off or
// nothing is pending).
func (l *Learning) Canaries() []CanaryStatus { return l.canary.States() }

// Decisions returns the retrainer's bounded decision history, oldest
// first — trigger provenance (size/age, drift, manual) per trained
// routing target, surviving the registry's version pruning.
func (l *Learning) Decisions() []RetrainDecision { return l.ret.Decisions() }

// Close drains the retrainer goroutine (waiting out a training run in
// flight, however long it takes) and closes the corpus store. Queries
// still executing afterwards keep running; only their harvest appends
// are dropped (and counted in HarvestStats.Errors). Daemons with a
// shutdown deadline should prefer Shutdown.
func (l *Learning) Close() error {
	l.ret.Stop()
	return l.store.Close()
}

// Shutdown is Close bounded by ctx: the corpus is synced to disk
// immediately, then the retrainer gets until the deadline to drain. A
// training run that exceeds it is abandoned — its would-be version dies
// with the process anyway, and the store tolerates being closed under it
// (Snapshot/Append return ErrClosed) — so a SIGTERM supervisor's kill
// grace period is honored even mid-training.
func (l *Learning) Shutdown(ctx context.Context) error {
	if err := l.store.Sync(); err != nil && !errors.Is(err, feedback.ErrClosed) {
		return err
	}
	done := make(chan struct{})
	go func() {
		l.ret.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	return l.store.Close()
}

func (l *Learning) modelVersion(v *feedback.Version) ModelVersion {
	return ModelVersion{
		ID:         v.ID,
		TrainedAt:  v.Meta.TrainedAt,
		CorpusSize: v.Meta.CorpusSize,
		HoldoutL1:  v.Meta.HoldoutL1,
		HoldoutN:   v.Meta.HoldoutN,
		Source:     v.Meta.Source,
		Family:     v.Meta.Family,
		Decision:   v.Meta.Decision,
		BaselineL1: v.Meta.BaselineL1,
		Current:    l.reg.IsCurrent(v),
	}
}

// IsEmptyCorpus reports whether err means there was nothing to train on.
func IsEmptyCorpus(err error) bool { return errors.Is(err, feedback.ErrEmptyCorpus) }

// IsNoRollback reports whether err means no earlier version exists.
func IsNoRollback(err error) bool { return errors.Is(err, feedback.ErrNoRollback) }

// IsUnknownFamily reports whether err means the rollback named a routing
// target the registry has never dealt with — no serving version, no
// history, no fallback pin. Distinguishes a typo'd family name (not
// found) from a real family with nothing to roll back to (conflict).
func IsUnknownFamily(err error) bool { return errors.Is(err, feedback.ErrUnknownTarget) }

// selectionConfig translates the public SelectorConfig into the internal
// training configuration, applying the paper defaults.
func selectionConfig(cfg SelectorConfig) selection.Config {
	if len(cfg.Candidates) == 0 {
		cfg.Candidates = AllEstimators()
	}
	if cfg.Trees <= 0 {
		cfg.Trees = 200
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return selection.Config{
		Kinds:   cfg.Candidates,
		Dynamic: !cfg.StaticOnly,
		Mart:    mart.Options{Trees: cfg.Trees, Seed: cfg.Seed},
	}
}

// ExportExamples appends a batch of labelled examples (e.g. a synthetic
// batch Harvest) to an on-disk corpus directory in the store's segmented
// format — the same artifact cmd/trainsel and the live harvester share.
// Retention is disabled for the append: exporting to a corpus a daemon
// keeps at its retention cap must never delete the daemon's history (the
// owner re-applies its own bounds on its next open). The store is
// single-writer — do not export into a directory a RUNNING daemon is
// appending to (a concurrent rotation fails explicitly rather than
// clobbering, but the export will error); stop the daemon or export to a
// fresh directory instead. Read-only access (ImportExamples) is always
// safe.
func ExportExamples(dir string, examples []Example) error {
	store, err := feedback.OpenStore(dir, feedback.StoreOptions{MaxExamples: -1})
	if err != nil {
		return err
	}
	if _, err := store.AppendAll(examples); err != nil {
		store.Close()
		return err
	}
	return store.Close()
}

// ErrCorpusEmpty reports a well-formed corpus directory that holds zero
// examples (e.g. a daemon started with -learn that never finished a
// query). Callers with another example source can treat it as benign.
var ErrCorpusEmpty = errors.New("corpus holds no examples")

// ImportExamples reads every example retained in an on-disk corpus
// directory written by ExportExamples or a live Learning harvester. The
// read is strictly read-only — it neither creates the directory nor
// touches its segments, so it is safe on a corpus a running daemon owns.
func ImportExamples(dir string) ([]Example, error) {
	exs, err := feedback.ReadCorpus(dir)
	if err != nil {
		return nil, err
	}
	if len(exs) == 0 {
		return nil, fmt.Errorf("progressest: %w: %s", ErrCorpusEmpty, dir)
	}
	return exs, nil
}
