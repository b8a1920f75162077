package feedback

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"progressest/internal/progress"
	"progressest/internal/selection"
)

// mkExample builds a deterministic synthetic example keyed by i.
func mkExample(i int) selection.Example {
	var e selection.Example
	e.Features = make([]float64, 7)
	for j := range e.Features {
		e.Features[j] = float64(i)*10 + float64(j) + 0.25
	}
	for k := 0; k < progress.TotalKinds; k++ {
		e.ErrL1[k] = float64(i) + float64(k)/100
		e.ErrL2[k] = float64(i) + float64(k)/1000
	}
	e.Workload = "tpch"
	e.Signature = "Scan:lineitem,Filter:"
	e.Meta = map[string]float64{"query": float64(i), "pipeline": 0, "getnext_total": 1234}
	return e
}

func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := make([]selection.Example, 25)
	for i := range want {
		want[i] = mkExample(i)
		if err := s.Append(want[i]); err != nil {
			t.Fatal(err)
		}
	}
	check := func(s *ExampleStore) {
		t.Helper()
		if s.Len() != len(want) {
			t.Fatalf("Len = %d, want %d", s.Len(), len(want))
		}
		got, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for i := range want {
			if !reflect.DeepEqual(got[i], want[i]) {
				t.Fatalf("example %d diverges after round trip:\n got %+v\nwant %+v", i, got[i], want[i])
			}
		}
	}
	check(s) // live store
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2) // after reopen
}

func TestStoreSpecialFloatValues(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	e := mkExample(0)
	e.Features[0] = math.Inf(1)
	e.Features[1] = math.Copysign(0, -1)
	e.Features[2] = math.MaxFloat64
	if err := s.Append(e); err != nil {
		t.Fatal(err)
	}
	s.Close()
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	snap2, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	got := snap2[0]
	if !math.IsInf(got.Features[0], 1) || math.Signbit(got.Features[1]) != true ||
		got.Features[2] != math.MaxFloat64 {
		t.Fatalf("special floats mangled: %v", got.Features[:3])
	}
}

func TestStoreRotationAndRetention(t *testing.T) {
	dir := t.TempDir()
	// Tiny segments force rotation every few records; retention caps the
	// corpus at 10 examples.
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 40; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Rotation + retention happened: the very first segment file is gone.
	if _, err := os.Stat(filepath.Join(dir, "seg-00000001.log")); !os.IsNotExist(err) {
		t.Fatalf("oldest segment should have been rotated out and deleted (stat err: %v)", err)
	}
	if s.Len() > 10+5 { // retention drops whole segments, so allow slack
		t.Fatalf("retention did not bound the corpus: %d examples", s.Len())
	}
	// The survivors must be the newest examples, still in append order.
	got, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	last := got[len(got)-1]
	if last.Meta["query"] != 39 {
		t.Fatalf("newest example missing after retention: %v", last.Meta["query"])
	}
	for i := 1; i < len(got); i++ {
		if got[i].Meta["query"] != got[i-1].Meta["query"]+1 {
			t.Fatal("retention broke append order")
		}
	}
	s.Close()
	// Reopen: on-disk state agrees.
	s2, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.Len() != len(got) {
		t.Fatalf("reopen: %d examples, want %d", s2.Len(), len(got))
	}
}

// TestStoreCrashRecoveryTruncatedTail simulates a crash mid-append: the
// tail segment loses a few bytes. Reopening must keep every intact record,
// truncate the torn one, and accept further appends.
func TestStoreCrashRecoveryTruncatedTail(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()

	seg := filepath.Join(dir, "seg-00000001.log")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Chop off the last 3 bytes: the 5th record is now torn.
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if s2.Len() != 4 {
		t.Fatalf("recovered %d examples, want 4", s2.Len())
	}
	// The store keeps working after recovery.
	if err := s2.Append(mkExample(99)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, err := s3.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[4].Meta["query"] != 99 {
		t.Fatalf("post-recovery append lost: %d examples", len(got))
	}
}

// TestStoreCrashRecoveryCorruptRecord flips a payload byte mid-file; the
// scan must keep the prefix before the corruption.
func TestStoreCrashRecoveryCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "seg-00000001.log")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte about halfway through (inside record 3's payload).
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	defer s2.Close()
	if n := s2.Len(); n == 0 || n >= 6 {
		t.Fatalf("recovered %d examples, want a proper non-empty prefix of 6", n)
	}
}

// TestStoreAppendedMonotonicUnderRetention: the lifetime append counter
// keeps growing while retention pins Len() at its cap — the signal the
// retrain policy relies on to keep firing on a saturated corpus.
func TestStoreAppendedMonotonicUnderRetention(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Appended() != 60 {
		t.Fatalf("Appended = %d, want 60", s.Appended())
	}
	if s.Len() >= 60 {
		t.Fatalf("retention did not drop anything: Len = %d", s.Len())
	}
}

// TestStoreAppendFailureDoesNotPoisonSegment: when a write fails, later
// appends must not land after a torn record (where the recovery scan
// would silently discard them). With the handle broken beyond repair the
// store seals the segment and continues in a fresh one.
func TestStoreAppendFailureDoesNotPoisonSegment(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	// Simulate an I/O failure on the live handle: write AND truncate fail.
	s.active.Close()
	if err := s.Append(mkExample(9)); err == nil {
		t.Fatal("append on a broken handle should error")
	}
	// The store rotated to a clean segment; appends work again.
	if err := s.Append(mkExample(2)); err != nil {
		t.Fatalf("append after recovery rotation: %v", err)
	}
	s.Close()
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	got, err := s2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[2].Meta["query"] != 2 {
		t.Fatalf("post-failure appends lost: %d examples", len(got))
	}
}

// TestStoreNegativeMaxExamplesDisablesRetention: MaxExamples < 0 must
// never delete a segment — the mode ExportExamples uses so appending to
// someone else's capped corpus cannot destroy their history.
func TestStoreNegativeMaxExamplesDisablesRetention(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{MaxSegmentBytes: 2048, MaxExamples: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for i := 0; i < 60; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Len() != 60 {
		t.Fatalf("retention fired despite being disabled: Len = %d", s.Len())
	}
	if s.Segments() < 2 {
		t.Fatalf("rotation should still happen: %d segments", s.Segments())
	}
}

// TestStoreTailRecoveryIgnoresForeignLastFile: a foreign seg-*.log file
// sorting after the real tail must not demote the tail to sealed-segment
// (no-truncate) recovery.
func TestStoreTailRecoveryIgnoresForeignLastFile(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	// Foreign file that matches the glob, fails the name parse, and sorts
	// last; plus a torn record at the real tail.
	if err := os.WriteFile(filepath.Join(dir, "seg-backup.log"), []byte("junk"), 0o644); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "seg-00000001.log")
	info, err := os.Stat(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(seg, info.Size()-3); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatalf("recovery failed: %v", err)
	}
	if s2.Len() != 3 {
		t.Fatalf("recovered %d examples, want 3", s2.Len())
	}
	// The torn bytes were truncated away, so this append is recoverable.
	if err := s2.Append(mkExample(42)); err != nil {
		t.Fatal(err)
	}
	s2.Close()
	s3, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s3.Close()
	got, err := s3.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 4 || got[3].Meta["query"] != 42 {
		t.Fatalf("append after foreign-file recovery lost: %d examples", len(got))
	}
}

// TestStoreIgnoresLeftoverIndexFiles: seg-*.idx sidecars an older build
// left next to its segments — well-formed-looking or garbage — are
// foreign files now: open, Snapshot, SnapshotFamily and Stats answer
// exactly what they answer without them, and nobody reads, rewrites or
// removes them.
func TestStoreIgnoresLeftoverIndexFiles(t *testing.T) {
	dir := t.TempDir()
	want := buildScaleCorpus(t, dir, 60)
	read := func() ([]selection.Example, []selection.Example, CorpusStats) {
		t.Helper()
		s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		st := s.Stats()
		all, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		fam, err := s.SnapshotFamily("beta")
		if err != nil {
			t.Fatal(err)
		}
		return all, fam, st
	}
	cleanAll, cleanFam, cleanStats := read()
	if !reflect.DeepEqual(cleanAll, want) {
		t.Fatalf("clean open read %d examples, want %d", len(cleanAll), len(want))
	}

	leftovers := map[string][]byte{
		"seg-00000001.idx": []byte("PESTCIDX\x01\x00\x00\x00 claims three records that do not exist"),
		"seg-00000002.idx": []byte("garbage"),
		"seg-00000099.idx": nil, // its segment is long gone
	}
	for name, b := range leftovers {
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	all, fam, st := read()
	if !reflect.DeepEqual(all, cleanAll) || !reflect.DeepEqual(fam, cleanFam) {
		t.Fatalf("leftover index files changed the reads: %d/%d examples, want %d/%d", len(all), len(fam), len(cleanAll), len(cleanFam))
	}
	if !reflect.DeepEqual(st, cleanStats) {
		t.Fatalf("leftover index files changed Stats:\n got %+v\nwant %+v", st, cleanStats)
	}
	for name, b := range leftovers {
		got, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil || !bytes.Equal(got, b) {
			t.Fatalf("%s was touched (err %v)", name, err)
		}
	}
}

// TestReadCorpusIsReadOnly: ReadCorpus returns the retained examples
// without creating, truncating or appending anything.
func TestReadCorpusIsReadOnly(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := s.Append(mkExample(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	seg := filepath.Join(dir, "seg-00000001.log")
	info, _ := os.Stat(seg)
	os.Truncate(seg, info.Size()-2) // torn tail

	got, err := ReadCorpus(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("read %d examples, want the 2 intact ones", len(got))
	}
	// The torn tail was NOT repaired: the file size is untouched.
	after, _ := os.Stat(seg)
	if after.Size() != info.Size()-2 {
		t.Fatalf("ReadCorpus mutated the segment: %d -> %d bytes", info.Size()-2, after.Size())
	}
	// Missing directory errors and is not created.
	missing := filepath.Join(dir, "nope")
	if _, err := ReadCorpus(missing); err == nil {
		t.Fatal("missing dir should error")
	}
	if _, err := os.Stat(missing); !os.IsNotExist(err) {
		t.Fatal("ReadCorpus created the missing directory")
	}
	// A directory without segments errors.
	if _, err := ReadCorpus(t.TempDir()); err == nil {
		t.Fatal("segment-less dir should error")
	}
}

func TestStoreRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), []byte("not a corpus at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil {
		t.Fatal("expected bad-magic error")
	}
}

func TestStoreClosedAppendFails(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	s.Close()
	if err := s.Append(mkExample(0)); err != ErrClosed {
		t.Fatalf("append after close: %v, want ErrClosed", err)
	}
}

func TestStoreConcurrentAppendSnapshot(t *testing.T) {
	s, err := OpenStore(t.TempDir(), StoreOptions{MaxSegmentBytes: 4096})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			if err := s.Append(mkExample(i)); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	for i := 0; i < 50; i++ {
		snap, err := s.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		for j := 1; j < len(snap); j++ {
			if snap[j].Meta["query"] != snap[j-1].Meta["query"]+1 {
				t.Fatal("snapshot saw torn append order")
			}
		}
	}
	<-done
	if s.Len() != 200 {
		t.Fatalf("Len = %d, want 200", s.Len())
	}
}

// TestStoreFamilyRoundTripAndV1Compat: family tags survive the record
// format, and the compatibility story for a format-1 segment (the
// pre-family layout, never released) is an explicit refusal — OpenStore
// and ReadCorpus both answer the "uses corpus format" error instead of
// misreading the records, and leave the file untouched.
func TestStoreFamilyRoundTripAndV1Compat(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.AppendAll(familyExamples(5, 0, "lineitem", false)); err != nil {
		t.Fatal(err)
	}
	got, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 5 || got[0].Family != "lineitem" {
		t.Fatalf("family lost in round trip: %d examples, family %q", len(got), got[0].Family)
	}
	store.Close()

	// Stamp the segment as format 1, as an older build would have written
	// it. The record bytes do not matter: the header alone decides.
	names, _ := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if len(names) != 1 {
		t.Fatalf("segments: %v", names)
	}
	v1, err := os.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	v1[len(segMagic)] = 1 // format byte (little-endian uint32)
	if err := os.WriteFile(names[0], v1, 0o644); err != nil {
		t.Fatal(err)
	}
	const want = "uses corpus format 1"
	if _, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore over a format-1 tail: err %v, want %q", err, want)
	}
	if _, err := ReadCorpus(dir); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ReadCorpus over a format-1 segment: err %v, want %q", err, want)
	}
	// Same refusal when the old segment is a sealed one behind a current tail.
	if err := os.WriteFile(filepath.Join(dir, "seg-00000002.log"), segmentHeader(), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenStore(dir, StoreOptions{}); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("OpenStore over a sealed format-1 segment: err %v, want %q", err, want)
	}
	after, err := os.ReadFile(names[0])
	if err != nil || !bytes.Equal(after, v1) {
		t.Fatalf("refused segment was modified (err %v)", err)
	}
}
