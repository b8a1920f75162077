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

func (o StoreOptions) withDefaults() StoreOptions {
	if o.MaxSegmentBytes <= 0 {
		o.MaxSegmentBytes = 4 << 20
	}
	if o.MaxExamples == 0 {
		o.MaxExamples = 100000
	}
	if o.FamilyQuota < 0 {
		o.FamilyQuota = 0
	}
	return o
}

// ExampleStore is an append-only, segmented, crash-safe on-disk corpus of
// labelled selection examples. Appends go to the tail segment; rotation
// caps segment size; retention drops the oldest segments. All methods are
// safe for concurrent use.
type ExampleStore struct {
	dir  string
	opts StoreOptions

	mu       sync.Mutex
	segments []*segment
	active   *os.File // open handle on the tail segment
	total    int
	appended int // lifetime appends, monotonic: retention never lowers it
	closed   bool
	// famCounts tracks retained examples per family, maintained
	// incrementally on append, retention delete and compaction — the
	// quota checks and Stats read it instead of walking the segments.
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
	files, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: scan store: %w", err)
	}
	s := &ExampleStore{dir: dir, opts: opts, famCounts: make(map[string]int)}
	for i, f := range files {
		// The tail (crash-recovery semantics, reopened for append) is the
		// last PARSED segment, not whatever foreign seg-*.log file happens
		// to sort last.
		seg, err := openSegment(f, i == len(files)-1)
		if err != nil {
			return nil, err
		}
		s.segments = append(s.segments, seg)
		s.tallyLocked(seg, 1)
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
	files, err := listSegments(dir)
	if err != nil {
		return nil, fmt.Errorf("feedback: read corpus: %w", err)
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("feedback: %s contains no corpus segments", dir)
	}
	views := make([]segView, len(files))
	for i, f := range files {
		views[i] = segView{path: f.path, limit: -1}
	}
	return readSegments(views)
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
	s.active = f
	s.segments = append(s.segments, &segment{index: index, path: path, bytes: int64(segHeaderSize), fams: make(map[string]int)})
	return nil
}

// tail returns the newest segment, or nil when none exists.
func (s *ExampleStore) tail() *segment {
	if len(s.segments) == 0 {
		return nil
	}
	return s.segments[len(s.segments)-1]
}

// tallyLocked adds a segment's records to the store-wide totals (sign 1)
// or takes them out (sign -1).
func (s *ExampleStore) tallyLocked(seg *segment, sign int) {
	s.total += sign * seg.count
	for fam, n := range seg.fams {
		if s.famCounts[fam] += sign * n; s.famCounts[fam] <= 0 {
			delete(s.famCounts, fam)
		}
	}
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
	for fam, n := range seg.fams {
		if fam != "" && s.famCounts[fam]-n < quota {
			return false
		}
	}
	return true
}

// dropSegmentLocked removes segment i from disk and bookkeeping.
func (s *ExampleStore) dropSegmentLocked(i int) {
	old := s.segments[i]
	os.Remove(old.path)
	s.tallyLocked(old, -1)
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
			// if even that fails, rotate so future appends land in a
			// clean file. (The bookkeeping covers exactly the good prefix,
			// so readers stop at the torn remainder.)
			if terr := s.active.Truncate(tail.bytes); terr != nil {
				_ = s.newSegmentLocked(tail.index + 1)
			}
			return i, fmt.Errorf("feedback: append: %w", err)
		}
		tail.fams[exs[i].Family]++
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

// Snapshot decodes the retained corpus in append order. The segment list
// and each segment's good bytes are captured under the lock; the files
// are read and decoded outside it, so a large snapshot never stalls
// query-completion appends or the health probes. Every call reads the
// whole corpus: a retrain reads it once, and that read is a sliver of the
// fit it feeds. The returned examples are the caller's.
func (s *ExampleStore) Snapshot() ([]selection.Example, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	views := make([]segView, len(s.segments))
	for i, seg := range s.segments {
		views[i] = segView{path: seg.path, limit: seg.bytes}
	}
	s.mu.Unlock()
	return readSegments(views)
}

// SnapshotFamily returns the examples of one workload family, in the
// order Snapshot yields them. The family is matched exactly.
//
// Deprecated: it filters a full Snapshot, and no caller in this module
// reads one family; it stays only for the benchmark's corpus probe and
// goes with that probe.
func (s *ExampleStore) SnapshotFamily(family string) ([]selection.Example, error) {
	exs, err := s.Snapshot()
	if err != nil {
		return nil, err
	}
	out := exs[:0]
	for _, ex := range exs {
		if ex.Family == family {
			out = append(out, ex)
		}
	}
	return out, nil
}

// CorpusStats describes the on-disk corpus shape — what a retrain is
// about to read — surfaced to operators via GET /models.
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
	// FamilyQuota echoes the configured per-family retention floor (0 =
	// quotas off); the compaction counters are lifetime totals:
	// CompactionRuns successful CompactOnce passes, CompactedSegments
	// segments rewritten or removed by them, CompactionDropped examples
	// downsampled away.
	FamilyQuota       int `json:"family_quota,omitempty"`
	CompactionRuns    int `json:"compaction_runs,omitempty"`
	CompactedSegments int `json:"compacted_segments,omitempty"`
	CompactionDropped int `json:"compaction_dropped,omitempty"`
	// Deprecated: always zero, and not on the wire; the store keeps no
	// decode cache. They stay only for the benchmark's corpus probe and
	// go with that probe.
	CacheHits   uint64 `json:"-"`
	CacheMisses uint64 `json:"-"`
}

// Stats reports the corpus shape. The lock is held only to copy the
// incrementally-maintained counters — O(families + segments), never a
// read of the disk — so a huge corpus can't stall appends behind a
// health probe.
func (s *ExampleStore) Stats() CorpusStats {
	s.mu.Lock()
	defer s.mu.Unlock()
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
