// Package feedback closes the paper's training loop at serving time: it
// persists the labelled examples harvested from queries the daemon
// actually executes (the ExampleStore), converts finished execution
// traces into those examples as they complete (the Harvester), retrains
// the Section 4 estimator-selection models in the background once enough
// fresh evidence accrues (the Retrainer), and hot-swaps the resulting
// selector versions into the serving path without blocking a single
// progress request (the Registry). The corpus substrate is deliberately
// separate from the serving path — progressd keeps answering from the
// current selector while a new one trains.
package feedback

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"progressest/internal/progress"
	"progressest/internal/selection"
)

// Segment file layout:
//
//	header:  magic "PESTCORP" | uint32 format version
//	record:  uint32 payload length | uint32 CRC-32 (IEEE) of payload | payload
//
// All integers are little-endian. The payload is the compact binary
// encoding of one selection.Example (see encodeExample). Appends only ever
// extend the tail segment, so a crash can at worst leave one torn record
// at the end of the newest file; the recovery scan keeps every record up
// to the first corruption and truncates the torn tail.
// minFormat..storeFormat is the range of formats this build reads — today
// the single format 2; a segment stamped with any other is refused at
// open with the "uses corpus format" error, never misread.
const (
	segMagic      = "PESTCORP"
	storeFormat   = 2
	minFormat     = storeFormat
	segHeaderSize = len(segMagic) + 4
	recHeaderSize = 8
)

// ErrClosed is returned by operations on a closed store.
var ErrClosed = errors.New("feedback: store closed")

// StoreOptions bound the on-disk corpus.
type StoreOptions struct {
	// MaxSegmentBytes rotates the active segment once it exceeds this many
	// bytes (default 4 MiB).
	MaxSegmentBytes int64
	// MaxExamples bounds retention: once the corpus exceeds this many
	// examples, the oldest whole segments are deleted (default 100000; the
	// active segment is never deleted). Negative disables retention
	// entirely — required when appending to a corpus someone else bounds,
	// so an "append" can never delete another owner's history.
	MaxExamples int
	// CacheBytes bounds the sealed-segment decode cache: immutable
	// segments keep their decoded examples in memory (LRU by on-disk
	// bytes), so a warm Snapshot re-decodes only the active tail. 0 means
	// the 64 MiB default; negative disables caching entirely.
	CacheBytes int64
	// FamilyQuota protects each tagged family's newest examples from
	// retention and compaction: while a family retains no more than this
	// many examples, none of them may be dropped, no matter how far
	// another family's burst pushes the corpus past MaxExamples. The
	// quota outranks the cap — a corpus whose every example is
	// quota-protected stays over MaxExamples rather than starve a family.
	// Untagged ("") examples carry no quota. 0 or negative disables
	// quotas, restoring whole-oldest-segment retention.
	FamilyQuota int
}

// defaultCacheBytes is the decode-cache budget when CacheBytes is 0.
const defaultCacheBytes = 64 << 20

func (o StoreOptions) withDefaults() StoreOptions {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxExamples == 0 {
		o.MaxExamples = 100000
	}
	if o.CacheBytes == 0 {
		o.CacheBytes = defaultCacheBytes
	}
	if o.FamilyQuota < 0 {
		o.FamilyQuota = 0
	}
	return o
}

// segment is one corpus file's bookkeeping. Examples live on disk only —
// the store never mirrors the corpus in memory; Snapshot decodes it on
// demand (retrains are rare, serving-path memory is precious), with the
// bounded decodeCache softening that for immutable sealed segments.
type segment struct {
	index int
	path  string
	count int
	bytes int64
	// idx is the sealed segment's in-memory index (non-nil iff the segment
	// is sealed). Immutable once set.
	idx *segIndex
	// Active-tail bookkeeping, maintained incrementally on append so
	// sealing builds the index without re-reading the file: per-record
	// start offsets and family tags.
	offsets []int64
	fams    []string
	// gen counts in-place rewrites of this segment (compaction). It
	// qualifies the decode-cache key, so a reader that captured a view of
	// the pre-compaction image can never install its decode under the key
	// the post-compaction image lives at.
	gen int
}

// sealed reports whether the segment stopped accepting appends.
func (seg *segment) sealed() bool { return seg.idx != nil }

// cacheKey returns the decode-cache key for the segment's CURRENT image.
// Generation 0 (never compacted) keys by bare path.
func (seg *segment) cacheKey() string {
	if seg.gen == 0 {
		return seg.path
	}
	return seg.path + "#" + fmt.Sprint(seg.gen)
}

// forEachFamilyCount calls fn with each family present in the segment and
// its record count, whether the segment is sealed (index) or the active
// tail (incremental bookkeeping).
func (seg *segment) forEachFamilyCount(fn func(family string, n int)) {
	if seg.idx != nil {
		for f, ords := range seg.idx.families {
			fn(f, len(ords))
		}
		return
	}
	counts := make(map[string]int, 4)
	for _, f := range seg.fams {
		counts[f]++
	}
	for f, n := range counts {
		fn(f, n)
	}
}

// sealLocked freezes the active-tail bookkeeping into the segment's
// in-memory index. Nothing is written: the index is derived state the
// next open rebuilds from the segment's bytes.
func (seg *segment) sealLocked() {
	fams := make(map[string][]int32, 4)
	for ord, f := range seg.fams {
		fams[f] = append(fams[f], int32(ord))
	}
	seg.idx = &segIndex{good: seg.bytes, offsets: seg.offsets, families: fams}
	seg.offsets, seg.fams = nil, nil
}

// ExampleStore is an append-only, segmented, crash-safe on-disk corpus of
// labelled selection examples. Appends go to the tail segment; rotation
// caps segment size; retention drops the oldest segments. All methods are
// safe for concurrent use.
type ExampleStore struct {
	dir  string
	opts StoreOptions
	// cache memoises sealed segments' decoded examples (nil when
	// disabled). It has its own lock; snapshot reads never hold s.mu.
	cache *decodeCache

	mu       sync.Mutex
	segments []*segment
	active   *os.File // open handle on the tail segment
	total    int
	appended int // lifetime appends, monotonic: retention never lowers it
	closed   bool
	// famCounts tracks retained examples per family, maintained
	// incrementally on append, retention delete and compaction — the
	// quota checks and Stats read it instead of walking segment indexes.
	famCounts map[string]int
	// Compaction lifetime counters (under mu).
	compactRuns    int
	compactedSegs  int
	compactDropped int
}

// OpenStore opens (or creates) the corpus directory, recovering from any
// torn tail record left by a crash: the scan keeps every intact record
// and truncates the tail segment to the last good offset.
func OpenStore(dir string, opts StoreOptions) (*ExampleStore, error) {
	opts = opts.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("feedback: open store: %w", err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("feedback: scan store: %w", err)
	}
	sort.Strings(names)
	// Identify real segment files first: the tail (crash-recovery
	// semantics, reopened for append) must be the last PARSED segment,
	// not whatever foreign seg-*.log file happens to sort last.
	type segFile struct {
		name string
		idx  int
	}
	var files []segFile
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.log", &idx); err != nil {
			continue // foreign file; leave it alone
		}
		files = append(files, segFile{name, idx})
	}
	s := &ExampleStore{dir: dir, opts: opts, famCounts: make(map[string]int)}
	if opts.CacheBytes > 0 {
		s.cache = newDecodeCache(opts.CacheBytes)
	}
	for i, f := range files {
		var seg *segment
		if i == len(files)-1 {
			seg, err = readTailSegment(f.name, f.idx)
		} else {
			seg, err = readSealedSegment(f.name, f.idx)
		}
		if err != nil {
			return nil, err
		}
		s.segments = append(s.segments, seg)
		s.total += seg.count
		seg.forEachFamilyCount(func(fam string, n int) { s.famCounts[fam] += n })
	}
	s.appended = s.total
	if tail := s.tail(); tail == nil {
		if err := s.newSegmentLocked(1); err != nil {
			return nil, err
		}
	} else {
		f, err := os.OpenFile(tail.path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return nil, fmt.Errorf("feedback: reopen tail segment: %w", err)
		}
		s.active = f
	}
	s.enforceRetentionLocked()
	return s, nil
}

// ReadCorpus reads every example retained in a corpus directory without
// opening it for writing: nothing is created, truncated or appended, so
// it is safe on a corpus a live daemon owns, and a mistyped path errors
// instead of conjuring an empty store there. A torn tail record is
// skipped (not repaired).
func ReadCorpus(dir string) ([]selection.Example, error) {
	info, err := os.Stat(dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: read corpus: %w", err)
	}
	if !info.IsDir() {
		return nil, fmt.Errorf("feedback: read corpus: %s is not a directory", dir)
	}
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, fmt.Errorf("feedback: read corpus: %w", err)
	}
	sort.Strings(names)
	var out []selection.Example
	found := false
	for _, name := range names {
		var idx int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.log", &idx); err != nil {
			continue
		}
		found = true
		data, err := os.ReadFile(name)
		if os.IsNotExist(err) {
			continue // a live owner's retention deleted it after the glob
		}
		if err != nil {
			return nil, fmt.Errorf("feedback: read corpus: %w", err)
		}
		exs, _, _, _, err := scanRecords(data, name) // read-only: never truncates
		if err != nil {
			return nil, err
		}
		out = append(out, exs...)
	}
	if !found {
		return nil, fmt.Errorf("feedback: %s contains no corpus segments", dir)
	}
	return out, nil
}

// readSealedSegment validates one sealed segment file and returns its
// bookkeeping WITHOUT materialising the examples: one file read, one CRC
// pass and a family-tag skip per record (see buildSegIndex). Corruption
// inside a sealed segment keeps the intact prefix and ignores the
// remainder.
func readSealedSegment(path string, index int) (*segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: read segment: %w", err)
	}
	ix, err := buildSegIndex(data, path)
	if err != nil {
		return nil, err
	}
	return &segment{index: index, path: path, count: len(ix.offsets), bytes: ix.good, idx: ix}, nil
}

// readTailSegment recovers the tail segment with crash semantics: a torn
// or corrupt record at the end is truncated away so the segment can keep
// growing. The scan also rebuilds the tail's incremental index state
// (per-record offsets and family tags), so a later seal needs no re-read.
func readTailSegment(path string, index int) (*segment, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("feedback: read segment: %w", err)
	}
	seg := &segment{index: index, path: path}
	if len(data) < segHeaderSize {
		// A crash between create and header write; rewrite from scratch.
		if err := os.WriteFile(path, segmentHeader(), 0o644); err != nil {
			return nil, fmt.Errorf("feedback: reset torn segment: %w", err)
		}
		seg.bytes = int64(segHeaderSize)
		return seg, nil
	}
	ix, err := buildSegIndex(data, path)
	if err != nil {
		return nil, err
	}
	seg.count = len(ix.offsets)
	seg.bytes = ix.good
	seg.offsets = ix.offsets
	seg.fams = make([]string, len(ix.offsets))
	for f, ords := range ix.families {
		for _, o := range ords {
			seg.fams[o] = f
		}
	}
	if ix.good < int64(len(data)) {
		if err := os.Truncate(path, ix.good); err != nil {
			return nil, fmt.Errorf("feedback: truncate torn tail: %w", err)
		}
	}
	return seg, nil
}

// scanRecords validates a segment image's header and decodes its
// records, returning the examples, the record count, the byte offset of
// the end of the last intact record and the segment's format version.
// Torn or corrupt trailing records are ignored (never an error): the
// caller decides whether to truncate them away.
func scanRecords(data []byte, path string) ([]selection.Example, int, int, int, error) {
	format, err := segFormat(data, path)
	if err != nil {
		return nil, 0, 0, 0, err
	}
	var examples []selection.Example
	count := 0
	off := int64(segHeaderSize)
	for {
		n, payload, ok := recordAt(data, off)
		if !ok {
			break // torn or corrupt record; everything after it is suspect
		}
		ex, err := decodeExample(payload)
		if err != nil {
			return nil, 0, 0, 0, fmt.Errorf("feedback: %s: %w", path, err)
		}
		examples = append(examples, ex)
		count++
		off += recHeaderSize + int64(n)
	}
	return examples, count, int(off), format, nil
}

func segmentHeader() []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[len(segMagic):], storeFormat)
	return h
}

// newSegmentLocked creates and activates segment #index. O_EXCL makes a
// concurrent writer on the same directory an explicit error instead of a
// silent truncation of its segment — the store is single-writer.
func (s *ExampleStore) newSegmentLocked(index int) error {
	path := filepath.Join(s.dir, fmt.Sprintf("seg-%08d.log", index))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_EXCL, 0o644)
	if err != nil {
		return fmt.Errorf("feedback: create segment: %w", err)
	}
	if _, err := f.Write(segmentHeader()); err != nil {
		f.Close()
		// Remove the orphan: leaving it would make every rotation retry
		// fail on O_EXCL (EEXIST) until the process restarts.
		os.Remove(path)
		return fmt.Errorf("feedback: write segment header: %w", err)
	}
	if s.active != nil {
		s.active.Sync()
		s.active.Close()
	}
	// The outgoing tail is sealed from here on: freeze its incremental
	// bookkeeping into the index that family-sliced snapshots read.
	if prev := s.tail(); prev != nil && !prev.sealed() {
		prev.sealLocked()
	}
	s.active = f
	s.segments = append(s.segments, &segment{index: index, path: path, bytes: int64(segHeaderSize)})
	return nil
}

// tail returns the newest segment, or nil when none exists.
func (s *ExampleStore) tail() *segment {
	if len(s.segments) == 0 {
		return nil
	}
	return s.segments[len(s.segments)-1]
}

// enforceRetentionLocked deletes old whole segments while the corpus
// exceeds the example bound, oldest first. The active segment always
// survives; a negative bound disables retention. With family quotas on, a
// segment whose deletion would push any tagged family below its quota is
// SKIPPED rather than blocking retention outright — newer all-abundant
// segments behind it are still deletable, and compaction (the
// retrainer's poll, see Compact) reclaims the skipped segment's abundant
// records in place.
func (s *ExampleStore) enforceRetentionLocked() {
	if s.opts.MaxExamples < 0 {
		return
	}
	for i := 0; s.total > s.opts.MaxExamples && i < len(s.segments)-1; {
		old := s.segments[i]
		if !s.deletableLocked(old) {
			i++
			continue
		}
		s.dropSegmentLocked(i)
	}
}

// deletableLocked reports whether dropping the whole segment keeps every
// tagged family at or above its retention quota.
func (s *ExampleStore) deletableLocked(seg *segment) bool {
	quota := s.opts.FamilyQuota
	if quota <= 0 {
		return true
	}
	ok := true
	seg.forEachFamilyCount(func(fam string, n int) {
		if fam != "" && s.famCounts[fam]-n < quota {
			ok = false
		}
	})
	return ok
}

// dropSegmentLocked removes segment i from disk and bookkeeping.
func (s *ExampleStore) dropSegmentLocked(i int) {
	old := s.segments[i]
	os.Remove(old.path)
	if s.cache != nil {
		s.cache.remove(old.cacheKey())
	}
	s.total -= old.count
	old.forEachFamilyCount(func(fam string, n int) {
		if s.famCounts[fam] -= n; s.famCounts[fam] <= 0 {
			delete(s.famCounts, fam)
		}
	})
	s.segments = append(s.segments[:i], s.segments[i+1:]...)
}

// Append encodes and durably appends one example to the tail segment,
// rotating and enforcing retention as needed.
func (s *ExampleStore) Append(ex selection.Example) error {
	_, err := s.AppendAll([]selection.Example{ex})
	return err
}

// AppendAll appends a batch of examples under one lock acquisition. It
// returns the number of examples durably appended, which on error can be
// smaller than the batch — the prefix written before the failure IS in
// the corpus, so counters fed from the return value stay truthful.
func (s *ExampleStore) AppendAll(exs []selection.Example) (int, error) {
	if len(exs) == 0 {
		return 0, nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return 0, ErrClosed
	}
	for i := range exs {
		payload, err := encodeExample(&exs[i])
		if err != nil {
			return i, err
		}
		rec := make([]byte, recHeaderSize+len(payload))
		binary.LittleEndian.PutUint32(rec, uint32(len(payload)))
		binary.LittleEndian.PutUint32(rec[4:], crc32.ChecksumIEEE(payload))
		copy(rec[recHeaderSize:], payload)
		tail := s.segments[len(s.segments)-1]
		if _, err := s.active.Write(rec); err != nil {
			// A short write leaves a torn record mid-segment; anything
			// appended after it would be silently discarded by the next
			// recovery scan. Roll the file back to the last good offset;
			// if even that fails, seal the segment and move on so future
			// appends land in a clean file. (The tracked offsets cover
			// exactly the good prefix, so the index that seal freezes
			// stays truthful about the torn remainder.)
			if terr := s.active.Truncate(tail.bytes); terr != nil {
				_ = s.newSegmentLocked(tail.index + 1)
			}
			return i, fmt.Errorf("feedback: append: %w", err)
		}
		tail.offsets = append(tail.offsets, tail.bytes)
		tail.fams = append(tail.fams, exs[i].Family)
		tail.bytes += int64(len(rec))
		tail.count++
		s.total++
		s.appended++
		s.famCounts[exs[i].Family]++
		if tail.bytes >= s.opts.MaxSegmentBytes {
			if err := s.newSegmentLocked(tail.index + 1); err != nil {
				return i + 1, err
			}
		}
	}
	s.enforceRetentionLocked()
	return len(exs), nil
}

// Len returns the number of examples currently retained.
func (s *ExampleStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.total
}

// Appended returns the number of examples appended since the store was
// opened (plus those recovered at open). Unlike Len it is monotonic —
// retention dropping old segments never lowers it — so growth policies
// keep firing even once the corpus is pinned at its retention cap.
func (s *ExampleStore) Appended() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.appended
}

// Segments returns the number of on-disk segment files.
func (s *ExampleStore) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segments)
}

// segView is one segment's snapshot-capture state: everything a reader
// needs, lifted out of the store lock. For sealed segments idx is the
// immutable in-memory index; the active tail has idx nil.
type segView struct {
	path  string
	key   string // decode-cache key for the image this view captured
	limit int64  // good bytes at capture time; later appends are excluded
	count int
	idx   *segIndex
}

// captureViews snapshots the segment list under the lock; the files are
// read and decoded outside it, so a large snapshot never stalls
// query-completion appends or the health probes.
func (s *ExampleStore) captureViews() ([]segView, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	views := make([]segView, len(s.segments))
	for i, seg := range s.segments {
		views[i] = segView{path: seg.path, key: seg.cacheKey(), limit: seg.bytes, count: seg.count, idx: seg.idx}
	}
	return views, nil
}

// decodeView reads and decodes one segment view, serving sealed segments
// from the decode cache when possible (and populating it on a miss). A
// segment deleted by retention after the capture yields nil, nil.
func (s *ExampleStore) decodeView(v segView) ([]selection.Example, error) {
	if v.idx != nil && s.cache != nil {
		if exs, ok := s.cache.get(v.key); ok {
			return exs, nil
		}
	}
	// Writes go straight to the file (no userspace buffering), so a
	// plain read sees every record appended so far; the watermark
	// bounds the view to the capture instant.
	data, err := os.ReadFile(v.path)
	if os.IsNotExist(err) {
		return nil, nil // retention dropped this segment after the capture
	}
	if err != nil {
		return nil, fmt.Errorf("feedback: snapshot: %w", err)
	}
	if int64(len(data)) > v.limit {
		data = data[:v.limit]
	}
	exs, _, _, _, err := scanRecords(data, v.path)
	if err != nil {
		return nil, err
	}
	if v.idx != nil && s.cache != nil {
		// The key is generation-qualified: if compaction replaced the
		// image after this view was captured, this put lands under the
		// retired key and can never shadow the new image's decode.
		s.cache.put(v.key, exs, int64(len(data)))
	}
	return exs, nil
}

// snapshot captures the segment list and runs decode over every view in
// segment order, concatenating the results. The output is sized exactly
// from what the reads returned — segments dropped by retention
// mid-snapshot contribute nothing, so it is never over-allocated from a
// stale pre-capture total.
func (s *ExampleStore) snapshot(decode func(segView) ([]selection.Example, error)) ([]selection.Example, error) {
	views, err := s.captureViews()
	if err != nil {
		return nil, err
	}
	parts := make([][]selection.Example, len(views))
	total := 0
	for i, v := range views {
		if parts[i], err = decode(v); err != nil {
			return nil, err
		}
		total += len(parts[i])
	}
	out := make([]selection.Example, 0, total)
	for _, p := range parts {
		out = append(out, p...)
	}
	return out, nil
}

// Snapshot decodes the retained corpus in append order. The store keeps
// no unbounded in-memory mirror — segments are read and decoded on
// demand, one after another, with sealed (immutable) segments served from
// the bounded decode cache — so a warm snapshot costs one decode of the
// active tail plus slice copies. The returned slice is the caller's; the
// examples themselves may share backing arrays with the cache and other
// snapshots and must be treated as read-only (training and evaluation
// never mutate them).
func (s *ExampleStore) Snapshot() ([]selection.Example, error) {
	return s.snapshot(s.decodeView)
}

// SnapshotFamily decodes only the examples of one workload family, in
// the same order Snapshot would yield them. Sealed segments use their
// in-memory index: a segment holding none of the family's records is
// skipped without touching the disk, and one that does either filters
// the cached decode or decodes exactly the family's records off its
// offsets, so the read is O(family), not O(corpus). The active tail
// (index-less) is scanned and filtered. The read-only sharing contract
// matches Snapshot's. The retrainer no longer calls it — every training
// pass groups one full Snapshot by family — but the benchmark's corpus
// probe still times it.
//
// The family is matched exactly; use Snapshot for the global ("") target,
// which trains on every example regardless of tag.
func (s *ExampleStore) SnapshotFamily(family string) ([]selection.Example, error) {
	return s.snapshot(func(v segView) ([]selection.Example, error) {
		return s.decodeViewFamily(v, family)
	})
}

// decodeViewFamily extracts one family's examples from a segment view.
func (s *ExampleStore) decodeViewFamily(v segView, family string) ([]selection.Example, error) {
	if v.idx == nil {
		// Active tail: full decode, then filter.
		exs, err := s.decodeView(v)
		if err != nil {
			return nil, err
		}
		var out []selection.Example
		for _, ex := range exs {
			if ex.Family == family {
				out = append(out, ex)
			}
		}
		return out, nil
	}
	ords := v.idx.families[family]
	if len(ords) == 0 {
		return nil, nil // no I/O: the index proves the family is absent here
	}
	if s.cache != nil {
		if all, ok := s.cache.get(v.key); ok && len(all) == len(v.idx.offsets) {
			out := make([]selection.Example, 0, len(ords))
			for _, o := range ords {
				out = append(out, all[o])
			}
			return out, nil
		}
	}
	data, err := os.ReadFile(v.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("feedback: snapshot: %w", err)
	}
	if int64(len(data)) > v.limit {
		data = data[:v.limit]
	}
	out := make([]selection.Example, 0, len(ords))
	for _, o := range ords {
		_, payload, ok := recordAt(data, v.idx.offsets[o])
		if !ok {
			// The file under the index changed (it should never: sealed
			// segments are immutable). Fall back to the full scan, whose
			// corruption semantics — keep the intact prefix — are the
			// ground truth the index is only a shortcut for.
			exs, _, _, _, err := scanRecords(data, v.path)
			if err != nil {
				return nil, err
			}
			out = out[:0]
			for _, ex := range exs {
				if ex.Family == family {
					out = append(out, ex)
				}
			}
			return out, nil
		}
		ex, err := decodeExample(payload)
		if err != nil {
			return nil, fmt.Errorf("feedback: %s: %w", v.path, err)
		}
		out = append(out, ex)
	}
	return out, nil
}

// CorpusStats describes the on-disk corpus shape and the decode cache's
// standing — what a retrain is about to pay for, surfaced to operators
// via GET /models.
type CorpusStats struct {
	// Segments and Bytes are the on-disk segment count and their summed
	// good bytes; Examples is the retained example count.
	Segments int   `json:"segments"`
	Bytes    int64 `json:"bytes"`
	Examples int   `json:"examples"`
	// Families maps each workload family to its retained example count
	// (the empty key counts untagged examples), from counters kept on
	// append, retention and compaction — no scan.
	Families map[string]int `json:"families"`
	// CacheHits/CacheMisses are lifetime decode-cache lookups;
	// CacheBytes/CachedSegments the current footprint; CacheCapBytes the
	// configured budget (0 = caching disabled).
	CacheHits      uint64 `json:"cache_hits"`
	CacheMisses    uint64 `json:"cache_misses"`
	CacheBytes     int64  `json:"cache_bytes"`
	CacheCapBytes  int64  `json:"cache_cap_bytes"`
	CachedSegments int    `json:"cached_segments"`
	// FamilyQuota echoes the configured per-family retention floor (0 =
	// quotas off); the compaction counters are lifetime totals:
	// CompactionRuns successful CompactOnce passes, CompactedSegments
	// segments rewritten or removed by them, CompactionDropped examples
	// downsampled away.
	FamilyQuota       int `json:"family_quota,omitempty"`
	CompactionRuns    int `json:"compaction_runs,omitempty"`
	CompactedSegments int `json:"compacted_segments,omitempty"`
	CompactionDropped int `json:"compaction_dropped,omitempty"`
}

// Stats reports the corpus shape and cache counters. The lock is held
// only to copy the incrementally-maintained counters — O(families), never
// O(segments × families) — so a huge corpus can't stall appends behind a
// health probe.
func (s *ExampleStore) Stats() CorpusStats {
	s.mu.Lock()
	st := CorpusStats{
		Segments:          len(s.segments),
		Examples:          s.total,
		Families:          make(map[string]int, len(s.famCounts)),
		FamilyQuota:       s.opts.FamilyQuota,
		CompactionRuns:    s.compactRuns,
		CompactedSegments: s.compactedSegs,
		CompactionDropped: s.compactDropped,
	}
	for f, n := range s.famCounts {
		st.Families[f] = n
	}
	for _, seg := range s.segments {
		st.Bytes += seg.bytes
	}
	s.mu.Unlock()
	if s.cache != nil {
		st.CacheCapBytes = s.opts.CacheBytes
		st.CacheHits, st.CacheMisses, st.CacheBytes, st.CachedSegments = s.cache.stats()
	}
	return st
}

// Sync flushes the active segment to stable storage.
func (s *ExampleStore) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return s.active.Sync()
}

// Dir returns the corpus directory.
func (s *ExampleStore) Dir() string { return s.dir }

// Close syncs and closes the active segment. Further appends fail with
// ErrClosed.
func (s *ExampleStore) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	s.active.Sync()
	return s.active.Close()
}

// encodeExample serialises one example:
//
//	uint32 nFeatures | nFeatures × float64
//	uint32 nKinds    | nKinds × float64 (ErrL1) | nKinds × float64 (ErrL2)
//	uint32 len | workload bytes
//	uint32 len | signature bytes
//	uint32 len | family bytes
//	uint32 nMeta | per entry: uint32 len | key bytes | float64 value
//
// Meta keys are written sorted so equal examples encode to equal bytes.
func encodeExample(e *selection.Example) ([]byte, error) {
	size := 4 + 8*len(e.Features) +
		4 + 16*progress.TotalKinds +
		4 + len(e.Workload) +
		4 + len(e.Signature) +
		4 + len(e.Family) +
		4
	metaKeys := make([]string, 0, len(e.Meta))
	for k := range e.Meta {
		metaKeys = append(metaKeys, k)
		size += 4 + len(k) + 8
	}
	sort.Strings(metaKeys)
	buf := make([]byte, 0, size)
	buf = putUint32(buf, uint32(len(e.Features)))
	for _, f := range e.Features {
		buf = putFloat64(buf, f)
	}
	buf = putUint32(buf, uint32(progress.TotalKinds))
	for k := 0; k < progress.TotalKinds; k++ {
		buf = putFloat64(buf, e.ErrL1[k])
	}
	for k := 0; k < progress.TotalKinds; k++ {
		buf = putFloat64(buf, e.ErrL2[k])
	}
	buf = putString(buf, e.Workload)
	buf = putString(buf, e.Signature)
	buf = putString(buf, e.Family)
	buf = putUint32(buf, uint32(len(metaKeys)))
	for _, k := range metaKeys {
		buf = putString(buf, k)
		buf = putFloat64(buf, e.Meta[k])
	}
	return buf, nil
}

// errCorruptFeatureCount flags a record whose feature count cannot fit
// its payload (shared by the full decode and the family-only skip).
var errCorruptFeatureCount = errors.New("corrupt example: feature count")

// decodeExample is the inverse of encodeExample.
func decodeExample(b []byte) (selection.Example, error) {
	var e selection.Example
	r := reader{b: b}
	nf := r.uint32()
	if nf > uint32(len(b)) {
		return e, errCorruptFeatureCount
	}
	e.Features = make([]float64, nf)
	for i := range e.Features {
		e.Features[i] = r.float64()
	}
	nk := r.uint32()
	if r.err == nil && nk != uint32(progress.TotalKinds) {
		return e, fmt.Errorf("corpus written with %d estimator kinds; this build has %d — the corpus must be re-harvested", nk, progress.TotalKinds)
	}
	for i := 0; i < progress.TotalKinds; i++ {
		e.ErrL1[i] = r.float64()
	}
	for i := 0; i < progress.TotalKinds; i++ {
		e.ErrL2[i] = r.float64()
	}
	e.Workload = r.string()
	e.Signature = r.string()
	e.Family = r.string()
	nm := r.uint32()
	if nm > uint32(len(b)) {
		return e, errors.New("corrupt example: meta count")
	}
	if nm > 0 {
		e.Meta = make(map[string]float64, nm)
		for i := uint32(0); i < nm; i++ {
			k := r.string()
			e.Meta[k] = r.float64()
		}
	}
	if r.err != nil {
		return e, fmt.Errorf("corrupt example: %w", r.err)
	}
	if len(r.b) != 0 {
		return e, errors.New("corrupt example: trailing bytes")
	}
	return e, nil
}

func putUint32(b []byte, v uint32) []byte {
	return binary.LittleEndian.AppendUint32(b, v)
}

func putFloat64(b []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
}

func putString(b []byte, s string) []byte {
	b = putUint32(b, uint32(len(s)))
	return append(b, s...)
}

// reader is a cursor over a record payload that latches the first error.
type reader struct {
	b   []byte
	err error
}

func (r *reader) uint32() uint32 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 4 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := binary.LittleEndian.Uint32(r.b)
	r.b = r.b[4:]
	return v
}

func (r *reader) float64() float64 {
	if r.err != nil {
		return 0
	}
	if len(r.b) < 8 {
		r.err = io.ErrUnexpectedEOF
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return v
}

func (r *reader) string() string {
	n := r.uint32()
	if r.err != nil {
		return ""
	}
	if uint32(len(r.b)) < n {
		r.err = io.ErrUnexpectedEOF
		return ""
	}
	s := string(r.b[:n])
	r.b = r.b[n:]
	return s
}

// skip advances the cursor n bytes without materialising anything.
func (r *reader) skip(n int) {
	if r.err != nil {
		return
	}
	if n < 0 || len(r.b) < n {
		r.err = io.ErrUnexpectedEOF
		return
	}
	r.b = r.b[n:]
}

// skipString advances past one length-prefixed string.
func (r *reader) skipString() {
	n := r.uint32()
	if r.err != nil {
		return
	}
	r.skip(int(n))
}
