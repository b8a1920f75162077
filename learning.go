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
	// Deprecated: ignored; one model serves every query. Kept only so
	// bench/ builds; removed with ROADMAP item 16.
	FamilyModels bool
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
	// model from there instead of falling back to fixed estimators.
	DisablePersist bool
	// DriftWindow, DriftMinSamples, DriftRatio and DriftAbsSlack tune the
	// observed-vs-predicted drift monitor: per serving version, the mean
	// L1 error its estimator choices incur on the last DriftWindow
	// harvested pipelines it served (default 256) is compared against
	// the version's recorded holdout baseline once at least
	// DriftMinSamples observations accrued (default 32); the version
	// counts as drifted when observed > baseline*DriftRatio +
	// DriftAbsSlack (defaults 1.5 and 0.01; a negative slack means zero).
	DriftWindow     int
	DriftMinSamples int
	DriftRatio      float64
	DriftAbsSlack   float64
	// DisableDriftRetrain keeps drift tracking on (GET /models/drift,
	// DriftStatus) but never auto-retrains on a drift verdict — the
	// operator decides. By default a drifted model is retrained with
	// trigger "drift".
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
	// CONSECUTIVE drift-triggered retrains were rejected (by the quality
	// gate or by canary confirmation) while the model kept drifting, the
	// serving version itself is judged bad and rolled back to its previous
	// accepted version, exactly as POST /models/rollback would. 0 means
	// the default, 3; negative disables the breaker.
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
	// Decision is the retrain-quality gate's verdict: "accepted" versions
	// were hot-swapped into serving, "rejected" ones stay history-only.
	Decision string `json:"decision,omitempty"`
	// BaselineL1 is the serving version's L1 on the candidate's holdout
	// that the gate compared against (0 when there was no baseline).
	BaselineL1 float64 `json:"baseline_l1,omitempty"`
	// Current marks the version serving right now.
	Current bool `json:"current"`
}

// DriftStatus is the serving version's observed-vs-predicted standing:
// the windowed mean L1 error its estimator choices incur on live
// traffic, against the holdout error predicted for the version at
// training time.
type DriftStatus struct {
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
	// provenance from the decision history ("" before any decision): what
	// fired the last training run ("manual", "auto", "drift", "canary",
	// "auto-rollback") and how the quality gate ruled.
	LastTrigger  string `json:"last_trigger,omitempty"`
	LastDecision string `json:"last_decision,omitempty"`
	// RejectStreak counts consecutive gate-rejected drift retrains; at
	// LearningConfig.DriftRejectLimit the auto-rollback breaker trips and
	// the streak resets.
	RejectStreak int `json:"reject_streak,omitempty"`
}

// CanaryStatus is one pending challenger in champion/challenger
// confirmation, surfaced in GET /models as "canaries".
type CanaryStatus = feedback.CanaryState

// RetrainDecision is one entry of the retrainer's bounded decision
// history: which trigger trained a version, and how the quality gate
// ruled.
type RetrainDecision = feedback.TrainDecision

// HarvestStats counts the learning loop's harvesting activity.
type HarvestStats = feedback.HarvestStats

// CorpusStats describes the on-disk corpus shape — what the next retrain
// is about to read. Surfaced in GET /models as "corpus".
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
	// evidence than a seed model, so they serve.
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
		Persist:          models,
		Drift:            drift,
		DriftRetrain:     !cfg.DisableDriftRetrain,
		Canary:           canary,
		DriftRejectLimit: cfg.DriftRejectLimit,
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
// example counts). Cheap: it reads the store's in-memory counters, never
// the disk.
func (l *Learning) CorpusStats() CorpusStats { return l.store.Stats() }

// Retrain synchronously trains a new selector version on the accumulated
// corpus and hot-swaps it in when it passes the quality gate. Serving is
// never blocked: queries keep using the previous version until the
// atomic swap. Check the returned version's Decision — a rejected version
// did NOT replace the serving model.
func (l *Learning) Retrain() (ModelVersion, error) {
	v, err := l.ret.Retrain("manual")
	if err != nil {
		return ModelVersion{}, err
	}
	return l.modelVersion(v), nil
}

// Rollback atomically reverts the model to the previously published
// version. A rollback that applied but could not persist the serving
// pointer reports the failure via PersistError.
func (l *Learning) Rollback() (ModelVersion, error) {
	v, _, err := l.rollback()
	return v, err
}

// rollback reverts the serving model. persistErr reports a rollback that
// APPLIED in memory but failed to rewrite the on-disk manifest — the
// caller must surface it (a restart would resume from the previously
// persisted model), distinctly from err, which means the rollback itself
// did not happen.
func (l *Learning) rollback() (v ModelVersion, persistErr, err error) {
	rv, err := l.ret.Rollback()
	if err != nil {
		return ModelVersion{}, nil, err
	}
	if l.models != nil {
		// The serving version changed; refresh the persisted manifest so a
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
// model (nil once a later persist succeeds, which rewrites the whole
// manifest). While non-nil, a daemon restart would resume from the last
// successfully persisted model rather than the serving one.
func (l *Learning) PersistError() error {
	if l.models == nil {
		return nil
	}
	return l.models.LastSyncError()
}

// Current returns the serving version; ok is false before any version
// exists.
func (l *Learning) Current() (v ModelVersion, ok bool) {
	cur := l.reg.Current()
	if cur == nil {
		return ModelVersion{}, false
	}
	return l.modelVersion(cur), true
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

// DriftStatus returns the serving version's observed-vs-predicted
// standing, with the latest retrain provenance attached — an empty list
// until the serving version has served a harvested query.
func (l *Learning) DriftStatus() []DriftStatus {
	out, _ := l.driftReport()
	return out
}

// driftReport returns DriftStatus and the decision history it was joined
// with, from one read of each.
func (l *Learning) driftReport() ([]DriftStatus, []RetrainDecision) {
	decisions := l.Decisions()
	st, ok := l.drift.Status()
	if !ok {
		return nil, decisions
	}
	cfg := l.drift.Config()
	out := DriftStatus{
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
		RejectStreak: l.ret.DriftRejects(),
	}
	// The ring is oldest-first; its last entry is the most recent
	// decision.
	if n := len(decisions); n > 0 {
		out.LastTrigger, out.LastDecision = decisions[n-1].Trigger, decisions[n-1].Decision
	}
	return []DriftStatus{out}, decisions
}

// Canaries returns the challenger currently in champion/challenger
// confirmation, as a list of at most one (empty when canary serving is
// off or nothing is pending).
func (l *Learning) Canaries() []CanaryStatus { return l.canary.States() }

// Decisions returns the retrainer's bounded decision history, oldest
// first — trigger provenance (size/age, drift, manual) per trained
// version, surviving the registry's version pruning.
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
		Decision:   v.Meta.Decision,
		BaselineL1: v.Meta.BaselineL1,
		Current:    l.reg.IsCurrent(v),
	}
}

// IsEmptyCorpus reports whether err means there was nothing to train on.
func IsEmptyCorpus(err error) bool { return errors.Is(err, feedback.ErrEmptyCorpus) }

// IsNoRollback reports whether err means no earlier version exists.
func IsNoRollback(err error) bool { return errors.Is(err, feedback.ErrNoRollback) }

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
