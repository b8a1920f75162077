package feedback

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"progressest/internal/atomicio"
	"progressest/internal/selection"
)

// manifestFormat versions manifest.json; manifestName is its file name
// inside the model directory.
// Format history: v1 persisted only the serving version; v2 adds its
// bounded rollback history. v1 manifests still restore (with an empty
// history).
const (
	manifestFormat = 2
	manifestName   = "manifest.json"
)

// manifest is the durable serving pointer: the serving version's
// selector file, with the version metadata a restart needs to rebuild
// the registry, and its rollback history.
type manifest struct {
	Format  int       `json:"format"`
	SavedAt time.Time `json:"saved_at"`
	// Targets holds exactly one entry, the serving version, or none while
	// v0 serves. Manifests written while per-family model routing existed
	// also list one entry per family (and a "pinned_families" list);
	// Restore reads only the entry with an empty family.
	Targets []manifestTarget `json:"targets"`
}

type manifestTarget struct {
	Family     string    `json:"family"`
	File       string    `json:"file"`
	ID         int       `json:"id"`
	TrainedAt  time.Time `json:"trained_at"`
	CorpusSize int       `json:"corpus_size"`
	HoldoutL1  float64   `json:"holdout_l1"`
	HoldoutN   int       `json:"holdout_n"`
	Source     string    `json:"source"`
	// History is the rollback chain, nearest candidate first — the
	// versions successive POST /models/rollback calls would serve,
	// bounded at maxPersistHistory. Restoring them means rollback still
	// has somewhere to go after a restart.
	History []manifestVersion `json:"history,omitempty"`
}

// manifestVersion is one persisted non-serving version in the rollback
// history.
type manifestVersion struct {
	File       string    `json:"file"`
	ID         int       `json:"id"`
	TrainedAt  time.Time `json:"trained_at"`
	CorpusSize int       `json:"corpus_size"`
	HoldoutL1  float64   `json:"holdout_l1"`
	HoldoutN   int       `json:"holdout_n"`
	Source     string    `json:"source"`
}

// ModelDir persists the serving selector version next to the corpus so
// a restarted daemon resumes from its last trained model instead of v0.
// Each version's selector goes to its own binary file (global-v12.sel; a
// version restored from an earlier build's global-v12.json keeps that
// file) via selection.Selector.Save
// (temp-file + fsync + rename, so a crash never leaves a torn model), and
// the atomically renamed manifest.json is the commit point for the whole
// file SET: selector files are only ever written under fresh names, so a
// crash — or a later file's write failure — between selector saves and
// the manifest rename leaves the old manifest pointing at the old,
// untouched files, never at a file whose contents changed underneath it.
// Files no longer referenced are garbage-collected after a successful
// manifest write. The serving version is persisted PLUS its rollback
// chain (bounded at maxPersistHistory), so a restarted daemon can still
// roll back.
type ModelDir struct {
	dir string

	mu sync.Mutex
	// saved maps version id → the file name on disk, so a Sync after a
	// rollback (or with an unchanged serving version) skips the multi-MB
	// selector rewrite and only refreshes the manifest — and so a synced
	// restored version keeps pointing at the file it was loaded from.
	// Entries whose files the GC pass dropped are forgotten with them.
	saved map[int]string
	// lastSync is the most recent Sync outcome (nil on success); while
	// non-nil, the on-disk manifest may trail the serving version.
	lastSync error
}

// OpenModelDir opens (or creates) the model directory.
func OpenModelDir(dir string) (*ModelDir, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: open model dir: %w", err)
	}
	return &ModelDir{dir: dir, saved: make(map[int]string)}, nil
}

// Dir returns the model directory path.
func (d *ModelDir) Dir() string { return d.dir }

// Sync persists the registry's serving version and its rollback chain
// above v0: every referenced version's selector file (skipped when
// already on disk) plus the manifest, empty while v0 serves. Selector
// files of versions no longer referenced are garbage-collected after the
// manifest commit — the manifest alone decides what Restore loads.
func (d *ModelDir) Sync(reg *Registry) (err error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	defer func() { d.lastSync = err }()
	// Snapshot the chain under d.mu: concurrent Sync callers (retrainer
	// publish vs. operator rollback) then serialise in registry-mutation
	// order, so the last manifest written always reflects the registry's
	// latest state, never a stale preempted snapshot.
	chain := reg.PersistState(maxPersistHistory)
	m := manifest{Format: manifestFormat, SavedAt: time.Now()}
	if len(chain) > 0 {
		files := make([]string, len(chain))
		for i, v := range chain {
			if files[i], err = d.ensureSavedLocked(v); err != nil {
				return err
			}
		}
		v := chain[0]
		t := manifestTarget{
			File:       files[0],
			ID:         v.ID,
			TrainedAt:  v.Meta.TrainedAt,
			CorpusSize: v.Meta.CorpusSize,
			HoldoutL1:  v.Meta.HoldoutL1,
			HoldoutN:   v.Meta.HoldoutN,
			Source:     v.Meta.Source,
		}
		for i, h := range chain[1:] {
			t.History = append(t.History, manifestVersion{
				File:       files[i+1],
				ID:         h.ID,
				TrainedAt:  h.Meta.TrainedAt,
				CorpusSize: h.Meta.CorpusSize,
				HoldoutL1:  h.Meta.HoldoutL1,
				HoldoutN:   h.Meta.HoldoutN,
				Source:     h.Meta.Source,
			})
		}
		m.Targets = []manifestTarget{t}
	}
	if err := d.writeManifestLocked(&m); err != nil {
		return err
	}
	d.collectGarbageLocked(&m)
	return nil
}

// ensureSavedLocked makes sure the version's selector file exists on
// disk and returns its name. Versions already written (or restored) are
// not rewritten.
func (d *ModelDir) ensureSavedLocked(v *Version) (string, error) {
	if file, ok := d.saved[v.ID]; ok {
		return file, nil
	}
	// Restore renumbers versions: never overwrite a restored one's file.
	file := fmt.Sprintf("global-v%d.sel", v.ID)
	for n := 2; ; n++ {
		if _, err := os.Lstat(filepath.Join(d.dir, file)); os.IsNotExist(err) {
			break
		}
		file = fmt.Sprintf("global-v%d-%d.sel", v.ID, n)
	}
	if err := v.Selector.Save(filepath.Join(d.dir, file)); err != nil {
		return "", fmt.Errorf("feedback: persist model v%d: %w", v.ID, err)
	}
	d.saved[v.ID] = file
	return file, nil
}

// collectGarbageLocked removes selector files the committed manifest no
// longer references — leftovers of superseded versions, of writes whose
// manifest commit never happened, JSON files of earlier builds, and the
// family-* files of a directory last written while per-family model
// routing existed. Only files matching this package's naming schemes
// (global-v* or family-*, ending .sel or .json) are touched; removal
// failures are ignored (an orphan costs disk, not correctness, and the
// next Sync retries).
func (d *ModelDir) collectGarbageLocked(m *manifest) {
	referenced := make(map[string]bool, 1+maxPersistHistory)
	for _, t := range m.Targets {
		referenced[t.File] = true
		for _, h := range t.History {
			referenced[h.File] = true
		}
	}
	entries, err := os.ReadDir(d.dir)
	if err != nil {
		return
	}
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || referenced[name] || !strings.HasSuffix(name, ".sel") && !strings.HasSuffix(name, ".json") {
			continue
		}
		if !strings.HasPrefix(name, "global-v") && !strings.HasPrefix(name, "family-") {
			continue // not ours (e.g. the manifest, or an operator's file)
		}
		os.Remove(filepath.Join(d.dir, name))
	}
	// Forget saved entries for files the manifest dropped — they may be
	// deleted now, and without this the map grows one entry per version
	// ever persisted.
	for id, file := range d.saved {
		if !referenced[file] {
			delete(d.saved, id)
		}
	}
}

// writeManifestLocked writes manifest.json atomically — the commit point
// for the whole persisted model set.
func (d *ModelDir) writeManifestLocked(m *manifest) error {
	data, err := json.Marshal(m)
	if err != nil {
		return fmt.Errorf("feedback: marshal manifest: %w", err)
	}
	if err := atomicio.WriteFile(filepath.Join(d.dir, manifestName), data); err != nil {
		return fmt.Errorf("feedback: write manifest: %w", err)
	}
	return nil
}

// LastSyncError returns the most recent Sync outcome (nil on success).
// Every Sync rewrites the whole manifest, so a later success clears an
// earlier failure's staleness.
func (d *ModelDir) LastSyncError() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.lastSync
}

// Restore loads the persisted serving version into the registry: its
// rollback history and then the serving selector are published with
// source "restored", preserving the original training metadata for
// inspection in GET /models (the quality gate itself re-evaluates the
// serving selector on each candidate's fresh holdout; it never reads
// these stored numbers). It reports whether a serving version was
// restored; a missing manifest restores nothing and is not an error. A
// manifest with no targets records that v0 served: Restore rolls back
// past whatever was published before it (a seed), so a rollback to v0
// survives the restart. Family entries of a manifest written while
// per-family routing existed are ignored, and their files go at the next
// Sync.
func (d *ModelDir) Restore(reg *Registry) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	data, err := os.ReadFile(filepath.Join(d.dir, manifestName))
	if os.IsNotExist(err) {
		return false, nil
	}
	if err != nil {
		return false, fmt.Errorf("feedback: read manifest: %w", err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		return false, fmt.Errorf("feedback: parse manifest: %w", err)
	}
	if m.Format > manifestFormat {
		return false, fmt.Errorf("feedback: manifest format %d is newer than this build understands (%d)",
			m.Format, manifestFormat)
	}
	for _, t := range m.Targets {
		if t.Family != "" {
			continue
		}
		// Rollback history first, deepest first, so the registry's
		// version order reproduces the chain: each restored history
		// version is an earlier accepted version of the one published
		// after it — exactly what rollbackCandidateLocked walks. History
		// is best-effort: an unreadable entry only shortens the chain, it
		// must not block restoring the serving model.
		for i := len(t.History) - 1; i >= 0; i-- {
			h := t.History[i]
			sel, err := selection.Load(filepath.Join(d.dir, h.File))
			if err != nil {
				continue
			}
			v := reg.Publish(sel, VersionMeta{
				TrainedAt:  h.TrainedAt,
				CorpusSize: h.CorpusSize,
				HoldoutL1:  h.HoldoutL1,
				HoldoutN:   h.HoldoutN,
				Source:     "restored",
			})
			d.saved[v.ID] = h.File
		}
		sel, err := selection.Load(filepath.Join(d.dir, t.File))
		if err != nil {
			return false, fmt.Errorf("feedback: restore model: %w", err)
		}
		v := reg.Publish(sel, VersionMeta{
			TrainedAt:  t.TrainedAt,
			CorpusSize: t.CorpusSize,
			HoldoutL1:  t.HoldoutL1,
			HoldoutN:   t.HoldoutN,
			Source:     "restored",
		})
		// Remember the file each version came from: the registry assigned
		// it a fresh ID, and a later Sync must keep the manifest pointing
		// at this existing file rather than inventing a name that was
		// never written.
		d.saved[v.ID] = t.File
		return true, nil
	}
	for len(m.Targets) == 0 && !reg.Current().IsV0() {
		reg.Rollback() // fails only once v0 serves, which ends the loop
	}
	return false, nil
}
