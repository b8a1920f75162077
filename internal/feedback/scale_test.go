package feedback

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"
	"time"

	"progressest/internal/selection"
)

// scaleFamilies are the families the scale tests spread examples over.
var scaleFamilies = []string{"alpha", "beta", "gamma"}

// buildScaleCorpus writes n family-tagged examples into dir through a
// store with tiny segments, so the corpus spans several sealed segments
// plus an active tail. It returns the appended examples in order.
func buildScaleCorpus(t testing.TB, dir string, n int) []selection.Example {
	t.Helper()
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]selection.Example, n)
	for i := range want {
		want[i] = familyExample(i, scaleFamilies[i%len(scaleFamilies)], false)
		if err := s.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Segments(); got < 3 {
		t.Fatalf("corpus spans %d segments, want >= 3 (shrink MaxSegmentBytes?)", got)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return want
}

// filterFamily is the oracle for SnapshotFamily: a full snapshot, filtered.
func filterFamily(exs []selection.Example, family string) []selection.Example {
	var out []selection.Example
	for _, ex := range exs {
		if ex.Family == family {
			out = append(out, ex)
		}
	}
	return out
}

// sameExamples compares element-wise, treating nil and empty as equal.
func sameExamples(a, b []selection.Example) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if !reflect.DeepEqual(a[i], b[i]) {
			return false
		}
	}
	return true
}

// TestCorpusDirHoldsOnlySegments: the corpus is one kind of file. After
// rotation, whole-segment retention, a compaction pass and a reopen, the
// directory lists nothing but seg-NNNNNNNN.log files — no index, temp or
// bookkeeping file survives next to them.
func TestCorpusDirHoldsOnlySegments(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 40, FamilyQuota: 12}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	// A burst of one abundant family first, so retention can delete whole
	// early segments; then a mix whose sparse family pins every later
	// segment, leaving the rest of the overshoot to the compactor.
	for i := 0; i < 110; i++ {
		fam := "burst"
		if i >= 50 && i%5 == 4 {
			fam = "sparse"
		}
		if err := s.Append(familyExample(i, fam, false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("retention kept the oldest segment (err %v); the test no longer exercises deletion", err)
	}
	if _, err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.CompactedSegments == 0 || st.Segments < 3 {
		t.Fatalf("corpus not exercised: %+v", st)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s, err = OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Stats(); got.Examples != st.Examples || got.Segments != st.Segments {
		t.Fatalf("reopen sees %d examples in %d segments, want %d in %d", got.Examples, got.Segments, st.Examples, st.Segments)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != st.Segments {
		t.Fatalf("directory holds %d entries for %d segments", len(entries), st.Segments)
	}
	for _, e := range entries {
		var n int
		if _, err := fmt.Sscanf(e.Name(), "seg-%08d.log", &n); err != nil || e.Name() != fmt.Sprintf("seg-%08d.log", n) {
			t.Fatalf("corpus directory holds %q, want only seg-NNNNNNNN.log files", e.Name())
		}
	}
}

// TestSnapshotFamilyMatchesFilter: the per-family read is filtering a
// full snapshot, for every family including the untagged "" slice and an
// absent one.
func TestSnapshotFamilyMatchesFilter(t *testing.T) {
	dir := t.TempDir()
	buildScaleCorpus(t, dir, 60)
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Grow the live tail too, so the read covers sealed segments and tail.
	if _, err := s.AppendAll(familyExamples(7, 500, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	full, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	for _, fam := range []string{"alpha", "beta", "gamma", "", "absent"} {
		got, err := s.SnapshotFamily(fam)
		if err != nil {
			t.Fatal(err)
		}
		if !sameExamples(got, filterFamily(full, fam)) {
			t.Fatalf("SnapshotFamily(%q) = %d examples, want %d (filter of full snapshot)",
				fam, len(got), len(filterFamily(full, fam)))
		}
	}
}

// TestCorpusStatsShape: Stats reports the segment count, byte total and
// per-family example counts without touching the disk.
func TestCorpusStatsShape(t *testing.T) {
	dir := t.TempDir()
	want := buildScaleCorpus(t, dir, 60)
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	st := s.Stats()
	if st.Segments != s.Segments() || st.Examples != len(want) {
		t.Fatalf("Stats = %+v, want %d segments / %d examples", st, s.Segments(), len(want))
	}
	wantFams := make(map[string]int)
	for _, ex := range want {
		wantFams[ex.Family]++
	}
	if !reflect.DeepEqual(st.Families, wantFams) {
		t.Fatalf("Stats.Families = %v, want %v", st.Families, wantFams)
	}
	var diskBytes int64
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	for _, seg := range segs {
		fi, err := os.Stat(seg)
		if err != nil {
			t.Fatal(err)
		}
		diskBytes += fi.Size()
	}
	if st.Bytes != diskBytes {
		t.Fatalf("Stats.Bytes = %d, disk holds %d", st.Bytes, diskBytes)
	}
}

// versionKey strips the wall-clock from a version for bit-identity
// comparison across two independently trained registries.
type versionKey struct {
	ID         int
	Source     string
	Decision   string
	CorpusSize int
	HoldoutL1  float64
	HoldoutN   int
	BaselineL1 float64
	Current    bool
}

func registryKeys(reg *Registry) []versionKey {
	vs := reg.Versions()
	out := make([]versionKey, len(vs))
	for i, v := range vs {
		out[i] = versionKey{
			ID:         v.ID,
			Source:     v.Meta.Source,
			Decision:   v.Meta.Decision,
			CorpusSize: v.Meta.CorpusSize,
			HoldoutL1:  v.Meta.HoldoutL1,
			HoldoutN:   v.Meta.HoldoutN,
			BaselineL1: v.Meta.BaselineL1,
			Current:    reg.IsCurrent(v),
		}
	}
	return out
}

// TestRetrainFamiliesParallelMatchesSequential: a parallel-fit retrain
// over a corpus of several families publishes the exact version sequence
// — ids, metrics, gate decisions, selectors, the serving pointer — a
// sequential retrain of the same corpus does. selection.Train fits the
// kinds on GOMAXPROCS workers, so that is what the two runs vary.
func TestRetrainFamiliesParallelMatchesSequential(t *testing.T) {
	run := func(procs int) (*Registry, *Retrainer) {
		t.Helper()
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
		store, err := OpenStore(t.TempDir(), StoreOptions{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { store.Close() })
		// Mixed truthful/inverted families, and a second round that
		// exercises the gate against a real baseline.
		if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendAll(familyExamples(30, 100, "beta", true)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendAll(familyExamples(30, 200, "gamma", false)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendAll(familyExamples(30, 300, "delta", true)); err != nil {
			t.Fatal(err)
		}
		reg := newRegistry()
		ret := NewRetrainer(store, reg, RetrainerConfig{Selection: fastConfig()})
		if _, err := ret.Retrain("manual"); err != nil {
			t.Fatal(err)
		}
		// Second round on a grown corpus: the serving version is now a
		// holdout-evaluated baseline, so the gate path runs too.
		if _, err := store.AppendAll(familyExamples(10, 400, "alpha", false)); err != nil {
			t.Fatal(err)
		}
		if _, err := store.AppendAll(familyExamples(10, 500, "beta", true)); err != nil {
			t.Fatal(err)
		}
		if _, err := ret.Retrain("manual"); err != nil {
			t.Fatal(err)
		}
		return reg, ret
	}

	seqReg, seqRet := run(1)
	parReg, parRet := run(4)

	seqKeys, parKeys := registryKeys(seqReg), registryKeys(parReg)
	if !reflect.DeepEqual(seqKeys, parKeys) {
		t.Fatalf("parallel retrain diverges from sequential:\n seq %+v\n par %+v", seqKeys, parKeys)
	}
	seqVs, parVs := seqReg.Versions(), parReg.Versions()
	for i := range seqVs {
		if !reflect.DeepEqual(seqVs[i].Selector, parVs[i].Selector) {
			t.Fatalf("version %d: parallel selector differs from sequential", seqVs[i].ID)
		}
	}
	// Decision histories match too (modulo wall-clock).
	seqDs, parDs := seqRet.Decisions(), parRet.Decisions()
	if len(seqDs) != len(parDs) {
		t.Fatalf("decision count: seq %d, par %d", len(seqDs), len(parDs))
	}
	for i := range seqDs {
		seqDs[i].At, parDs[i].At = time.Time{}, time.Time{}
		if seqDs[i] != parDs[i] {
			t.Fatalf("decision %d diverges:\n seq %+v\n par %+v", i, seqDs[i], parDs[i])
		}
	}
}

// TestTickTrainsWhenDue: the shared background tick still runs the
// size/age retrain (it replaced the Start loop's direct calls).
func TestTickTrainsWhenDue(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	if _, err := store.AppendAll(familyExamples(30, 0, "alpha", false)); err != nil {
		t.Fatal(err)
	}
	reg := newRegistry()
	ret := NewRetrainer(store, reg, RetrainerConfig{
		Selection: fastConfig(),
		Policy:    RetrainPolicy{MinNewExamples: 1, MinInterval: time.Nanosecond},
	})
	ret.tick()
	if reg.Current() == nil {
		t.Fatal("tick with a due policy did not train")
	}
	if got := reg.Current().Meta.Source; got != "auto" {
		t.Fatalf("tick trained with source %q, want auto", got)
	}
}

// TestStoreOptionsDefaults pins the zero-value behavior of the store's
// bounds.
func TestStoreOptionsDefaults(t *testing.T) {
	o := StoreOptions{}.withDefaults()
	if o.MaxSegmentBytes != 4<<20 || o.MaxExamples != 100000 || o.FamilyQuota != 0 {
		t.Fatalf("defaults = %+v", o)
	}
	o = StoreOptions{MaxSegmentBytes: -1, MaxExamples: -1, FamilyQuota: -1}.withDefaults()
	if o.MaxSegmentBytes != 4<<20 || o.MaxExamples != -1 || o.FamilyQuota != 0 {
		t.Fatalf("negative knobs not clamped: %+v", o)
	}
}

// TestSnapshotMatchesReadCorpus: the store's Snapshot and the read-only
// ReadCorpus are one read path over one directory. After appends,
// rotation, whole-segment retention and a compaction rewrite, both
// return exactly the same examples in the same order, and so does a
// fresh open.
func TestSnapshotMatchesReadCorpus(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 40, FamilyQuota: 12}
	s, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 110; i++ {
		fam := "burst"
		if i >= 50 && i%5 == 4 {
			fam = "sparse"
		}
		if err := s.Append(familyExample(i, fam, false)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, "seg-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("retention kept the oldest segment (err %v)", err)
	}
	res, ok, err := s.CompactOnce()
	if err != nil || !ok || res.Removed {
		t.Fatalf("CompactOnce = %+v, %v, %v; want one segment rewritten", res, ok, err)
	}
	if err := s.Sync(); err != nil {
		t.Fatal(err)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != s.Len() || !sameExamples(snap, read) {
		t.Fatalf("Snapshot holds %d examples (Len %d), ReadCorpus %d, or they differ", len(snap), s.Len(), len(read))
	}
	s2, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	reopened, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if !sameExamples(reopened, read) {
		t.Fatalf("reopened store reads %d examples, ReadCorpus %d, or they differ", len(reopened), len(read))
	}
}
