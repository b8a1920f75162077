package feedback

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"progressest/internal/selection"
)

// sigExample is familyExample with a plan signature, so compaction's
// (family, signature) grouping has something to group by.
func sigExample(i int, family, sig string) selection.Example {
	e := familyExample(i, family, false)
	e.Signature = sig
	return e
}

// TestPlanCompaction pins the planner's contract: largest groups are
// downsampled first, no tagged family is cut below its quota, untagged
// records have no floor, and survivors stay spread across the segment
// (alternating ordinals drop before contiguous ones).
func TestPlanCompaction(t *testing.T) {
	// 8 burst records (one signature), 2 sparse, 2 untagged.
	fams := []string{"b", "b", "s", "b", "b", "", "b", "b", "s", "b", "b", ""}
	sigs := []string{"x", "x", "r", "x", "x", "u", "x", "x", "r", "x", "x", "u"}
	totals := map[string]int{"b": 8, "s": 2, "": 2}

	drop := planCompaction(fams, sigs, totals, 2, 6)
	dropped := map[string]int{}
	for i, d := range drop {
		if d {
			dropped[fams[i]]++
		}
	}
	// burst budget 8-2=6 covers all of needed; sparse is at quota and
	// untagged is a smaller group, so neither is touched.
	if dropped["b"] != 6 || dropped["s"] != 0 || dropped[""] != 0 {
		t.Fatalf("dropped per family = %v, want b:6 only", dropped)
	}
	// The 2 burst survivors must not be adjacent members of the group:
	// alternating ordinals are dropped first.
	var kept []int
	for i, d := range drop {
		if fams[i] == "b" && !d {
			kept = append(kept, i)
		}
	}
	if len(kept) != 2 {
		t.Fatalf("burst survivors %v, want 2", kept)
	}

	// Quota floor beats need: with everything quota-protected nothing
	// drops even when needed is huge.
	drop = planCompaction(fams, sigs, totals, 100, 1000)
	for i, d := range drop {
		if d && fams[i] != "" {
			t.Fatalf("quota-protected record %d dropped", i)
		}
	}

	// needed <= 0 is a no-op.
	for _, d := range planCompaction(fams, sigs, totals, 0, 0) {
		if d {
			t.Fatal("planCompaction dropped records with needed=0")
		}
	}
}

// TestCompactionShedsBurstPreservesSparse is the headline lifecycle
// property: a sparse family interleaved with a 3× burst across every
// segment blocks whole-segment retention entirely (each segment holds
// quota-protected records), the signature-aware compactor then sheds the
// burst's bulk record-by-record, and the sparse family survives intact.
func TestCompactionShedsBurstPreservesSparse(t *testing.T) {
	dir := t.TempDir()
	store, err := OpenStore(dir, StoreOptions{
		MaxSegmentBytes: 2048, MaxExamples: 150, FamilyQuota: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	var sparse []int
	for i := 0; i < 400; i++ {
		fam, sig := "burst", "hot-"+string(rune('a'+i%3))
		if i%4 == 3 {
			fam, sig = "sparse", "rare"
			sparse = append(sparse, i)
		}
		if err := store.Append(sigExample(i, fam, sig)); err != nil {
			t.Fatal(err)
		}
	}
	// Quota blocked every whole-segment delete: the corpus is far over
	// its 150 cap.
	if store.Len() != 400 {
		t.Fatalf("retention deleted quota-protected segments: %d examples left", store.Len())
	}

	dropped, err := store.Compact()
	if err != nil {
		t.Fatal(err)
	}
	// Compaction sheds exactly the burst's budget (300-100) and stops at
	// the quota floor, even though the cap would want 250 gone.
	if dropped != 200 || store.Len() != 200 {
		t.Fatalf("compaction dropped %d (corpus %d), want 200 (corpus 200)", dropped, store.Len())
	}
	st := store.Stats()
	if st.Families["sparse"] != 100 || st.Families["burst"] != 100 {
		t.Fatalf("family counts after compaction = %v, want sparse:100 burst:100", st.Families)
	}
	if st.CompactionRuns == 0 || st.CompactionDropped != 200 {
		t.Fatalf("compaction counters = %+v", st)
	}

	// Every sparse example survived, in order.
	got, err := store.SnapshotFamily("sparse")
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(sparse) {
		t.Fatalf("sparse family has %d examples, want %d", len(got), len(sparse))
	}
	for i := range got {
		if int(got[i].Meta["query"]) != sparse[i] {
			t.Fatalf("sparse example %d is query %v, want %d", i, got[i].Meta["query"], sparse[i])
		}
	}
}

// TestCompactionByteCompatible: a compacted segment is a byte-for-byte
// valid segment in the original format — every rewritten file indexes
// end to end with no trailing junk, and the reopened store (fresh scan)
// sees exactly the survivors the compacting store kept.
func TestCompactionByteCompatible(t *testing.T) {
	dir := t.TempDir()
	opts := StoreOptions{MaxSegmentBytes: 2048, MaxExamples: 30, FamilyQuota: 12}
	store, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		fam, sig := "a", "heavy"
		if i%5 == 4 {
			fam, sig = "b", "light"
		}
		if err := store.Append(sigExample(i, fam, sig)); err != nil {
			t.Fatal(err)
		}
	}
	before, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := store.Compact(); err != nil {
		t.Fatal(err)
	}
	after, err := store.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	// Survivors are a subsequence of the pre-compaction corpus.
	j := 0
	for i := range after {
		for j < len(before) && before[j].Meta["query"] != after[i].Meta["query"] {
			j++
		}
		if j == len(before) {
			t.Fatalf("example %v not in (or out of order with) the original corpus", after[i].Meta["query"])
		}
		j++
	}
	// Every b example is quota-protected.
	if n := store.Stats().Families["b"]; n != 12 {
		t.Fatalf("family b has %d examples, want all 12", n)
	}
	if err := store.Close(); err != nil {
		t.Fatal(err)
	}

	// The rewritten segments scan cleanly, end to end.
	segs, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	for _, p := range segs {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		if seg, err := scanSegment(data, p); err != nil || seg.bytes != int64(len(data)) {
			t.Fatalf("%s does not scan end to end after compaction: %+v, err %v", p, seg, err)
		}
	}

	// A fresh open sees exactly the compacted corpus.
	store2, err := OpenStore(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer store2.Close()
	reopened, err := store2.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	if len(reopened) != len(after) {
		t.Fatalf("reopened corpus has %d examples, compacting store kept %d", len(reopened), len(after))
	}
	for i := range after {
		if reopened[i].Meta["query"] != after[i].Meta["query"] || reopened[i].Family != after[i].Family {
			t.Fatalf("reopened example %d = %v/%s, want %v/%s",
				i, reopened[i].Meta["query"], reopened[i].Family, after[i].Meta["query"], after[i].Family)
		}
	}
}

// TestTickCompacts: a background tick compacts an over-cap quota store
// without being asked, records no error and keeps every quota-protected
// example.
func TestTickCompacts(t *testing.T) {
	store, err := OpenStore(t.TempDir(), StoreOptions{
		MaxSegmentBytes: 2048, MaxExamples: 30, FamilyQuota: 12,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer store.Close()
	for i := 0; i < 60; i++ {
		fam, sig := "a", "heavy"
		if i%5 == 4 {
			fam, sig = "b", "light"
		}
		if err := store.Append(sigExample(i, fam, sig)); err != nil {
			t.Fatal(err)
		}
	}
	r := NewRetrainer(store, NewRegistry(), RetrainerConfig{Selection: fastConfig()})
	r.tick()
	if st := store.Stats(); st.CompactionRuns == 0 {
		t.Fatalf("background tick never compacted: %+v", st)
	}
	if err := r.LastError(); err != nil {
		t.Fatal(err)
	}
	if n := store.Stats().Families["b"]; n != 12 {
		t.Fatalf("background compaction lost quota-protected examples: b=%d", n)
	}
}

// segImage builds a valid segment image (header + CRC-framed records)
// from encoded examples — the fuzz seed shape.
func segImage(t testing.TB, exs []selection.Example) []byte {
	t.Helper()
	img := segmentHeader()
	for i := range exs {
		payload, err := encodeExample(&exs[i])
		if err != nil {
			t.Fatal(err)
		}
		var hdr [recHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:4], uint32(len(payload)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(payload))
		img = append(img, hdr[:]...)
		img = append(img, payload...)
	}
	return img
}

// FuzzCompactSegmentImage fuzzes the compacted-segment format: for any
// byte blob that parses as a segment, planning + survivor byte-copy must
// yield an image that (a) still parses with exactly the kept records,
// (b) keeps the original format version, and (c) decodes to exactly the
// kept examples in order — the invariants every segment reader relies on.
func FuzzCompactSegmentImage(f *testing.F) {
	seed := []selection.Example{
		sigExample(1, "a", "x"), sigExample(2, "a", "x"), sigExample(3, "b", "y"),
		sigExample(4, "", ""), sigExample(5, "a", "z"),
	}
	f.Add(segImage(f, seed), 1, 3)
	f.Add(segImage(f, seed[:2]), 0, 100)
	f.Add(segImage(f, nil), 2, 1)
	f.Add([]byte("PESTCORP\x02\x00\x00\x00"), 1, 1)
	f.Fuzz(func(t *testing.T, data []byte, quota, needed int) {
		spans, fams, sigs, err := recordTags(data, "fuzz")
		if err != nil {
			// Not a segment, or a CRC-valid record that does not decode:
			// CompactOnce errors out, never rewrites.
			return
		}
		good := int64(segHeaderSize)
		for i, sp := range spans {
			if sp[0] != good {
				t.Fatalf("record %d starts at %d, previous ends at %d", i, sp[0], good)
			}
			good = sp[1]
		}
		data = data[:good]
		totals := map[string]int{}
		for _, fam := range fams {
			totals[fam]++
		}
		drop := planCompaction(fams, sigs, totals, quota, needed)

		img := survivorImage(data, spans, drop)
		kept := 0
		for _, d := range drop {
			if !d {
				kept++
			}
		}
		nseg, err := scanSegment(img, "fuzz-compacted")
		if err != nil {
			t.Fatalf("compacted image does not parse: %v", err)
		}
		if nseg.count != kept {
			t.Fatalf("compacted image has %d records, want %d", nseg.count, kept)
		}
		was, _ := segFormat(data, "fuzz")
		if now, _ := segFormat(img, "fuzz-compacted"); now != was {
			t.Fatalf("compaction changed the format: %d -> %d", was, now)
		}
		if nseg.bytes != int64(len(img)) {
			t.Fatalf("compacted image has %d trailing junk bytes", int64(len(img))-nseg.bytes)
		}
		got, _, err := scanRecords(img, "fuzz-compacted")
		if err != nil || len(got) != kept {
			t.Fatalf("compacted image scan: %d records, err %v; want %d", len(got), err, kept)
		}
		// Quota invariant: no tagged family that planCompaction was allowed
		// to touch dropped below its floor (families already under quota
		// must not shrink at all).
		keptFams := map[string]int{}
		for i := range got {
			keptFams[got[i].Family]++
		}
		if quota > 0 {
			for fam, n := range totals {
				if fam == "" {
					continue
				}
				floor := min(n, quota)
				if keptFams[fam] < floor {
					t.Fatalf("family %q cut to %d, floor %d", fam, keptFams[fam], floor)
				}
			}
		}
		// Survivors decode to exactly the kept originals, in order.
		j := 0
		for i := range fams {
			if drop[i] {
				continue
			}
			if got[j].Family != fams[i] || got[j].Signature != sigs[i] {
				t.Fatalf("survivor %d is %s/%s, want %s/%s", j, got[j].Family, got[j].Signature, fams[i], sigs[i])
			}
			j++
		}
	})
}
