package feedback

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"progressest/internal/mart"
	"progressest/internal/selection"
)

// TestModelDirPersistsVersionHistory: the manifest carries up to
// maxPersistHistory earlier versions, and a restored
// registry can Rollback without ever having trained — the operator
// escape hatch survives a restart.
func TestModelDirPersistsVersionHistory(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "corpus"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	md, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Gate:      QualityGate{Disabled: true},
		Persist:   md,
	})
	if _, err := store.AppendAll(trainable(40, 0)); err != nil {
		t.Fatal(err)
	}
	v1, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	// Grow the corpus so v2 is distinguishable by CorpusSize after the
	// restore renumbers version IDs.
	if _, err := store.AppendAll(trainable(20, 100)); err != nil {
		t.Fatal(err)
	}
	v2, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}
	if v1.Meta.CorpusSize == v2.Meta.CorpusSize {
		t.Fatal("test needs distinguishable versions")
	}

	// The manifest on disk records the earlier version as history.
	raw, err := os.ReadFile(filepath.Join(dir, "models", "manifest.json"))
	if err != nil {
		t.Fatal(err)
	}
	var m struct {
		Targets []struct {
			Family  string `json:"family"`
			History []struct {
				CorpusSize int `json:"corpus_size"`
			} `json:"history"`
		} `json:"targets"`
	}
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Targets) != 1 || m.Targets[0].Family != "" {
		t.Fatalf("manifest targets = %+v, want the serving version only", m.Targets)
	}
	hist := m.Targets[0].History
	if len(hist) != 1 || hist[0].CorpusSize != v1.Meta.CorpusSize {
		t.Fatalf("manifest history = %+v, want one entry with corpus size %d", hist, v1.Meta.CorpusSize)
	}

	// "Restart": a fresh registry restored from disk serves v2 and can
	// still roll back to v1 — the history entries were republished.
	md2, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := newRegistry()
	if _, err := md2.Restore(reg2); err != nil {
		t.Fatal(err)
	}
	cur := reg2.Current()
	if cur == nil || cur.Meta.CorpusSize != v2.Meta.CorpusSize || !cur.Meta.TrainedAt.Equal(v2.Meta.TrainedAt) {
		t.Fatalf("restored current = %+v, want v2 (corpus %d)", cur, v2.Meta.CorpusSize)
	}
	back, err := reg2.Rollback()
	if err != nil {
		t.Fatalf("rollback after restore: %v", err)
	}
	if back.Meta.CorpusSize != v1.Meta.CorpusSize || !back.Meta.TrainedAt.Equal(v1.Meta.TrainedAt) {
		t.Fatalf("rolled back to %+v, want v1 (corpus %d)", back.Meta, v1.Meta.CorpusSize)
	}

	// Syncing the rolled-back state and restoring again serves v1: the
	// rollback itself survives the next restart.
	if err := md2.Sync(reg2); err != nil {
		t.Fatal(err)
	}
	reg3 := newRegistry()
	if _, err := md2.Restore(reg3); err != nil {
		t.Fatal(err)
	}
	if cur := reg3.Current(); cur == nil || cur.Meta.CorpusSize != v1.Meta.CorpusSize {
		t.Fatalf("post-rollback restart serves %+v, want v1 (corpus %d)", cur, v1.Meta.CorpusSize)
	}
}

// TestModelDirPersistRestore: a retrain persists the serving model; a
// fresh registry restored from the same directory serves an identical
// selector and keeps the training metadata the gate compares against.
func TestModelDirPersistRestore(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(filepath.Join(dir, "corpus"), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	md, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Gate:      QualityGate{Disabled: true},
		Persist:   md,
	})
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(30, 100, "beta", false)); err != nil {
		t.Fatal(err)
	}
	want, err := ret.Retrain("manual")
	if err != nil {
		t.Fatal(err)
	}

	// "Restart": a fresh registry restores from disk alone.
	md2, err := OpenModelDir(filepath.Join(dir, "models"))
	if err != nil {
		t.Fatal(err)
	}
	reg2 := newRegistry()
	ok, err := md2.Restore(reg2)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	got := reg2.Current()
	if got == nil || got.Meta.Source != "restored" {
		t.Fatalf("restored current = %+v", got)
	}
	if got.Meta.HoldoutL1 != want.Meta.HoldoutL1 || got.Meta.HoldoutN != want.Meta.HoldoutN ||
		got.Meta.CorpusSize != want.Meta.CorpusSize {
		t.Fatalf("restore lost metadata: got %+v want %+v", got.Meta, want.Meta)
	}
	// The selector itself survived the round trip.
	probe := familyExamples(20, 1000, "", false)
	if a, b := picksRight(want.Selector, probe), picksRight(got.Selector, probe); a != b {
		t.Fatalf("restored selector picks %d/20, original %d/20", b, a)
	}

	// Restoring into an empty dir is a clean no-op.
	mdEmpty, err := OpenModelDir(filepath.Join(dir, "empty"))
	if err != nil {
		t.Fatal(err)
	}
	if ok, err := mdEmpty.Restore(newRegistry()); err != nil || ok {
		t.Fatalf("empty restore: ok=%v err=%v", ok, err)
	}
}

// TestModelDirSyncSkipsUnchanged: a Sync with an unchanged serving version
// must not rewrite the (potentially multi-MB) selector files.
func TestModelDirSyncSkipsUnchanged(t *testing.T) {
	dir := t.TempDir()
	md, err := OpenModelDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "global-v1.sel")
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !after.ModTime().Equal(before.ModTime()) {
		t.Fatal("unchanged selector file was rewritten")
	}
	// A new version commits under a fresh name (the manifest rename is
	// the file-set's commit point). The superseded file is NOT collected
	// yet — it is now the target's persisted rollback history.
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(dir, "global-v2.sel")); err != nil {
		t.Fatalf("new version file missing: %v", err)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("rollback-history selector file was collected: %v", err)
	}
	// Two more versions push v1 off the bounded history chain; only then
	// is its file garbage-collected.
	reg.Publish(sel, VersionMeta{Source: "manual"})
	reg.Publish(sel, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("selector file beyond the history depth was not garbage-collected")
	}
	for _, keep := range []string{"global-v2.sel", "global-v3.sel", "global-v4.sel"} {
		if _, err := os.Stat(filepath.Join(dir, keep)); err != nil {
			t.Fatalf("%s missing: %v", keep, err)
		}
	}
}

// TestModelDirRestoresPerFamilyManifest: a manifest written while
// per-family model routing existed — one target per family plus pinned
// families — restores only its global target and that target's history;
// the family targets and pins are ignored, and the next Sync rewrites the
// manifest with the one target and garbage-collects the family-*
// selector files.
func TestModelDirRestoresPerFamilyManifest(t *testing.T) {
	dir := t.TempDir()
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	files := []string{"global-v2.json", "global-v5.json", "family-alpha-v3.json", "family-alpha-v4.json", "family-b%2Fc-v6.json"}
	for _, f := range files {
		saveLegacyJSON(t, sel, filepath.Join(dir, f))
	}
	const manifestJSON = `{"format":2,"saved_at":"2026-10-01T12:00:00Z","targets":[
	{"family":"","file":"global-v5.json","id":5,"trained_at":"2026-10-01T11:00:00Z","corpus_size":500,"holdout_l1":0.04,"holdout_n":100,"source":"auto",
	 "history":[{"file":"global-v2.json","id":2,"trained_at":"2026-10-01T10:00:00Z","corpus_size":200,"holdout_l1":0.05,"holdout_n":40,"source":"auto"}]},
	{"family":"alpha","file":"family-alpha-v4.json","id":4,"trained_at":"2026-10-01T10:30:00Z","corpus_size":80,"holdout_l1":0.03,"holdout_n":16,"source":"auto",
	 "history":[{"file":"family-alpha-v3.json","id":3,"trained_at":"2026-10-01T10:10:00Z","corpus_size":60,"holdout_l1":0.03,"holdout_n":12,"source":"auto"}]},
	{"family":"b/c","file":"family-b%2Fc-v6.json","id":6,"trained_at":"2026-10-01T11:30:00Z","corpus_size":90,"holdout_l1":0.02,"holdout_n":18,"source":"drift"}],
	"pinned_families":["gamma"]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestJSON), 0o644); err != nil {
		t.Fatal(err)
	}

	md, err := OpenModelDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	ok, err := md.Restore(reg)
	if err != nil || !ok {
		t.Fatalf("restore: ok=%v err=%v", ok, err)
	}
	vs := reg.Versions()[1:] // above v0
	if len(vs) != 2 || vs[0].Meta.CorpusSize != 200 || vs[1].Meta.CorpusSize != 500 {
		t.Fatalf("restored versions %+v, want the global history (corpus 200) then its serving version (corpus 500)", vs)
	}
	cur := reg.Current()
	if cur != vs[1] || cur.Meta.HoldoutN != 100 || !cur.Meta.TrainedAt.Equal(time.Date(2026, 10, 1, 11, 0, 0, 0, time.UTC)) {
		t.Fatalf("restored current = %+v, want the global target", cur)
	}

	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(filepath.Join(dir, manifestName))
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(raw), "pinned_families") || strings.Contains(string(raw), "alpha") {
		t.Fatalf("synced manifest still carries family state: %s", raw)
	}
	var m manifest
	if err := json.Unmarshal(raw, &m); err != nil {
		t.Fatal(err)
	}
	if len(m.Targets) != 1 || m.Targets[0].File != "global-v5.json" ||
		len(m.Targets[0].History) != 1 || m.Targets[0].History[0].File != "global-v2.json" {
		t.Fatalf("synced manifest = %+v, want the global target on its restored files", m)
	}
	for _, f := range files {
		_, err := os.Stat(filepath.Join(dir, f))
		if family := strings.HasPrefix(f, "family-"); family != os.IsNotExist(err) {
			t.Fatalf("%s after Sync: stat err %v (family file collected: want %v)", f, err, family)
		}
	}

	// Rollback walks the global history alone: no family version joined
	// it, so the second rollback lands on v0 and the third has nowhere to
	// go.
	if back, err := reg.Rollback(); err != nil || back != vs[0] {
		t.Fatalf("rollback = %+v, %v; want the restored global history", back, err)
	}
	if back, err := reg.Rollback(); err != nil || !back.IsV0() {
		t.Fatalf("second rollback = %+v, %v; want v0", back, err)
	}
	if _, err := reg.Rollback(); !errors.Is(err, ErrNoRollback) {
		t.Fatalf("third rollback err = %v, want ErrNoRollback", err)
	}
}

// saveLegacyJSON writes sel as the JSON selector file (format 1) that
// builds before the binary format wrote.
func saveLegacyJSON(t *testing.T, sel *selection.Selector, path string) {
	t.Helper()
	p := struct {
		Format  int                    `json:"format"`
		Kinds   []int                  `json:"kinds"`
		Dynamic bool                   `json:"dynamic"`
		Models  map[string]*mart.Model `json:"models"`
	}{Format: 1, Dynamic: sel.Dynamic, Models: map[string]*mart.Model{}}
	for _, k := range sel.Kinds {
		p.Kinds = append(p.Kinds, int(k))
		p.Models[k.String()] = sel.Models[k]
	}
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// corrupt flips one byte in the middle of a selector file, so its
// checksum no longer matches.
func corrupt(t *testing.T, path string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)/2] ^= 0x55
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestModelDirRestoreCorruptFiles: a history file failing its checksum
// only shortens the restored rollback chain, while a serving file failing
// it fails the restore — a daemon must not silently come back serving an
// older model than the one it was serving.
func TestModelDirRestoreCorruptFiles(t *testing.T) {
	sel, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	persist := func(t *testing.T) string {
		dir := t.TempDir()
		md, err := OpenModelDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := newRegistry()
		for size := 1; size <= 3; size++ {
			reg.Publish(sel, VersionMeta{Source: "manual", CorpusSize: size})
		}
		if err := md.Sync(reg); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	t.Run("history", func(t *testing.T) {
		dir := persist(t)
		corrupt(t, filepath.Join(dir, "global-v1.sel"))
		md, err := OpenModelDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := newRegistry()
		if ok, err := md.Restore(reg); err != nil || !ok {
			t.Fatalf("restore: ok=%v err=%v", ok, err)
		}
		vs := reg.Versions()[1:] // above v0
		if len(vs) != 2 || vs[0].Meta.CorpusSize != 2 || reg.Current().Meta.CorpusSize != 3 {
			t.Fatalf("restored %d versions, current %+v; want v2 as the only history under v3", len(vs), reg.Current().Meta)
		}
	})
	t.Run("serving", func(t *testing.T) {
		dir := persist(t)
		corrupt(t, filepath.Join(dir, "global-v3.sel"))
		md, err := OpenModelDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := md.Restore(newRegistry()); err == nil || !strings.Contains(err.Error(), "checksum") {
			t.Fatalf("restore with a corrupt serving file: err = %v, want a checksum error", err)
		}
	})
}

// TestModelDirRestoresLegacyJSONBesideBinary: a directory an earlier
// build wrote a JSON history version into, and this build a binary
// serving version, restores both; each keeps its own file while it stays
// in the chain — a new version whose renumbered ID matches a restored
// file's name is written beside it, not over it — and the GC pass
// collects superseded and orphaned selector files of either suffix, but
// nothing outside its naming scheme.
func TestModelDirRestoresLegacyJSONBesideBinary(t *testing.T) {
	dir := t.TempDir()
	old, err := selection.Train(familyExamples(30, 0, "", false), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	next, err := selection.Train(familyExamples(30, 0, "", true), fastConfig())
	if err != nil {
		t.Fatal(err)
	}
	probe := familyExamples(20, 1000, "", false)
	if picksRight(old, probe) == picksRight(next, probe) {
		t.Fatal("test needs selectors that pick differently")
	}
	saveLegacyJSON(t, old, filepath.Join(dir, "global-v2.json"))
	saveLegacyJSON(t, old, filepath.Join(dir, "global-v1.json"))   // orphan of an earlier build
	for _, f := range []string{"global-v3.sel", "global-v9.sel"} { // v9: an orphan too
		if err := old.Save(filepath.Join(dir, f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.json"), []byte("{}"), 0o644); err != nil {
		t.Fatal(err)
	}
	const manifestJSON = `{"format":2,"saved_at":"2026-10-01T12:00:00Z","targets":[
	{"family":"","file":"global-v3.sel","id":3,"trained_at":"2026-10-01T11:00:00Z","corpus_size":500,"holdout_l1":0.04,"holdout_n":100,"source":"auto",
	 "history":[{"file":"global-v2.json","id":2,"trained_at":"2026-10-01T10:00:00Z","corpus_size":200,"holdout_l1":0.05,"holdout_n":40,"source":"auto"}]}]}`
	if err := os.WriteFile(filepath.Join(dir, manifestName), []byte(manifestJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	restore := func() (*ModelDir, *Registry) {
		t.Helper()
		md, err := OpenModelDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		reg := newRegistry()
		if ok, err := md.Restore(reg); err != nil || !ok {
			t.Fatalf("restore: ok=%v err=%v", ok, err)
		}
		return md, reg
	}
	md, reg := restore()
	vs := reg.Versions()[1:] // above v0
	if len(vs) != 2 || vs[0].Meta.CorpusSize != 200 || reg.Current().Meta.CorpusSize != 500 {
		t.Fatalf("restored %d versions, current %+v; want the JSON history under the binary serving version", len(vs), reg.Current().Meta)
	}
	for _, v := range vs {
		if picksRight(v.Selector, probe) != picksRight(old, probe) {
			t.Fatalf("restored version %d predicts unlike the saved selector", v.ID)
		}
	}

	// A new version, v3 after the renumbering: the chain is v3, the
	// restored serving version, the restored history — both restored
	// files stay, the orphans go.
	reg.Publish(next, VersionMeta{Source: "manual", CorpusSize: 600})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	exists := func(f string) bool {
		_, err := os.Stat(filepath.Join(dir, f))
		return err == nil
	}
	for f, want := range map[string]bool{"global-v2.json": true, "global-v3.sel": true, "global-v3-2.sel": true,
		"global-v1.json": false, "global-v9.sel": false, "notes.json": true} {
		if exists(f) != want {
			t.Fatalf("after the first Sync: %s exists = %v, want %v", f, !want, want)
		}
	}
	_, again := restore()
	vs = again.Versions()[1:]
	if len(vs) != 3 || picksRight(vs[0].Selector, probe) != picksRight(old, probe) ||
		picksRight(vs[1].Selector, probe) != picksRight(old, probe) || picksRight(vs[2].Selector, probe) != picksRight(next, probe) {
		t.Fatal("a restart after the Sync does not restore the chain it persisted")
	}

	// Two more versions push both restored ones off the chain: the JSON
	// and the binary file are collected alike.
	reg.Publish(next, VersionMeta{Source: "manual"})
	reg.Publish(next, VersionMeta{Source: "manual"})
	if err := md.Sync(reg); err != nil {
		t.Fatal(err)
	}
	if exists("global-v2.json") || exists("global-v3.sel") || !exists("notes.json") || !exists(manifestName) {
		t.Fatal("superseded selector files of both suffixes should be collected, and nothing else")
	}
}
