package feedback

import (
	"fmt"
	"os"
	"sort"
)

// Compaction rewrites sealed segments in place to shed abundant records
// while the corpus is over its retention cap, instead of (or before)
// whole-segment deletion. The unit of loss is the (family, signature)
// group: groups with many retained records are downsampled first and
// hardest, so a rare pipeline shape's examples outlive an abundant
// shape's, and no tagged family is ever cut below its retention quota.
// The rewritten file is a byte-for-byte valid segment — the original
// header followed by the surviving records' original bytes — so every
// reader of a segment reads it unchanged.

// planCompaction decides which records of one sealed segment a compaction
// drops. fams/sigs are the segment's per-record family and signature
// tags; famTotals the store-wide retained counts per family; quota the
// per-family retention floor (<=0: only the cap limits dropping); needed
// how many examples the store is over its cap. Groups are processed
// largest first (ties broken by family then signature for determinism),
// and within a group records are dropped at alternating ordinals before
// contiguously, so the survivors stay spread across the segment's time
// span rather than clustering at one end. The returned mask is
// drop[ordinal].
func planCompaction(fams, sigs []string, famTotals map[string]int, quota, needed int) []bool {
	drop := make([]bool, len(fams))
	if needed <= 0 {
		return drop
	}
	// Per-family budget: how many of its records may be dropped anywhere
	// before the quota floor is hit. Untagged records have no floor.
	budget := make(map[string]int, len(famTotals))
	for f, n := range famTotals {
		if quota <= 0 || f == "" {
			budget[f] = n
		} else if n > quota {
			budget[f] = n - quota
		}
	}
	type group struct {
		family, sig string
		members     []int
	}
	byKey := make(map[[2]string]*group)
	var groups []*group
	for i := range fams {
		k := [2]string{fams[i], sigs[i]}
		g := byKey[k]
		if g == nil {
			g = &group{family: fams[i], sig: sigs[i]}
			byKey[k] = g
			groups = append(groups, g)
		}
		g.members = append(g.members, i)
	}
	sort.Slice(groups, func(a, b int) bool {
		ga, gb := groups[a], groups[b]
		if len(ga.members) != len(gb.members) {
			return len(ga.members) > len(gb.members)
		}
		if ga.family != gb.family {
			return ga.family < gb.family
		}
		return ga.sig < gb.sig
	})
	for _, g := range groups {
		if needed <= 0 {
			break
		}
		n := min(needed, min(budget[g.family], len(g.members)))
		if n <= 0 {
			continue
		}
		dropped := 0
		for pass := 0; pass < 2 && dropped < n; pass++ {
			for i, m := range g.members {
				if dropped >= n {
					break
				}
				if drop[m] || (pass == 0 && i%2 == 1) {
					continue
				}
				drop[m] = true
				dropped++
			}
		}
		budget[g.family] -= n
		needed -= n
	}
	return drop
}

// CompactionResult describes one CompactOnce pass.
type CompactionResult struct {
	// Path is the segment rewritten or removed.
	Path string
	// Dropped is how many examples the pass shed.
	Dropped int
	// Removed reports that the pass dropped every record and deleted the
	// segment outright.
	Removed bool
}

// CompactOnce rewrites (or removes) the oldest sealed segment that holds
// droppable records, if the corpus is over its retention cap. It returns
// ok=false when there is nothing to do — the store is at or under cap,
// or every over-cap record is quota-protected. The heavy work (decode,
// rewrite, fsync) happens outside the store lock; the swap re-validates
// that the planned segment is still live at the byte watermark planned
// against before renaming over it, so a concurrent retention delete or a
// competing pass simply voids this one.
func (s *ExampleStore) CompactOnce() (CompactionResult, bool, error) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return CompactionResult{}, false, ErrClosed
	}
	needed := s.total - s.opts.MaxExamples
	if s.opts.MaxExamples < 0 || needed <= 0 {
		s.mu.Unlock()
		return CompactionResult{}, false, nil
	}
	var victim *segment
	for _, seg := range s.segments[:len(s.segments)-1] { // every segment but the tail is sealed
		if s.droppableLocked(seg) > 0 {
			victim = seg
			break
		}
	}
	if victim == nil {
		s.mu.Unlock()
		return CompactionResult{}, false, nil
	}
	famTotals := make(map[string]int, len(s.famCounts))
	for f, n := range s.famCounts {
		famTotals[f] = n
	}
	quota := s.opts.FamilyQuota
	path, good, count := victim.path, victim.bytes, victim.count
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CompactionResult{}, false, nil // retention beat us to it
	}
	if err != nil {
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	if int64(len(data)) > good {
		data = data[:good] // ignore any post-seal foreign growth
	}
	spans, fams, sigs, err := recordTags(data, path)
	if err != nil {
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	if len(spans) != count {
		// The file changed under the store (sealed segments never do).
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %s holds %d intact records, its bookkeeping %d", path, len(spans), count)
	}
	drop := planCompaction(fams, sigs, famTotals, quota, needed)
	dropped := 0
	for _, d := range drop {
		if d {
			dropped++
		}
	}
	if dropped == 0 {
		// The store changed between planning and decode (e.g. appends
		// rebalanced famCounts); nothing droppable here any more.
		return CompactionResult{}, false, nil
	}
	res := CompactionResult{Path: path, Dropped: dropped}

	if dropped == len(spans) {
		// Every record goes: remove the whole segment.
		s.mu.Lock()
		defer s.mu.Unlock()
		i := s.plannedLocked(victim, good)
		if i < 0 {
			return CompactionResult{}, false, nil
		}
		s.dropSegmentLocked(i)
		res.Removed = true
		s.compactRuns++
		s.compactedSegs++
		s.compactDropped += dropped
		return res, true, nil
	}

	img := survivorImage(data, spans, drop)
	rebuilt, err := scanSegment(img, path)
	if err != nil {
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: rebuilt image invalid: %w", err)
	}
	// The temp name must not match the seg-*.log glob: a crash between
	// write and rename must leave a file the next open ignores.
	tmp, err := os.CreateTemp(s.dir, "compact-*.tmp")
	if err != nil {
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	tmpPath := tmp.Name()
	// The records being rewritten were already durable in the original
	// file; renaming a not-yet-synced image over it could lose them to a
	// crash, so the image is synced before the rename.
	if _, err := tmp.Write(img); err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		os.Remove(tmpPath)
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	i := s.plannedLocked(victim, good)
	if i < 0 {
		os.Remove(tmpPath)
		return CompactionResult{}, false, nil
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	s.tallyLocked(victim, -1)
	victim.count, victim.bytes, victim.fams = rebuilt.count, rebuilt.bytes, rebuilt.fams
	s.tallyLocked(victim, 1)
	s.compactRuns++
	s.compactedSegs++
	s.compactDropped += dropped
	// Shedding here may have unblocked whole-segment retention elsewhere.
	s.enforceRetentionLocked()
	return res, true, nil
}

// recordTags walks a sealed segment image and returns each intact
// record's byte span with its family and signature tags — what
// planCompaction groups by and survivorImage copies from. A record that
// passes its CRC but does not decode is an error: compaction never
// rewrites a segment it cannot read.
func recordTags(data []byte, path string) (spans [][2]int64, fams, sigs []string, err error) {
	_, err = walkRecords(data, path, func(off int64, payload []byte) error {
		ex, err := decodeExample(payload)
		if err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		spans = append(spans, [2]int64{off, off + recHeaderSize + int64(len(payload))})
		fams = append(fams, ex.Family)
		sigs = append(sigs, ex.Signature)
		return nil
	})
	return spans, fams, sigs, err
}

// survivorImage is a compacted segment image: the original header, then
// the original bytes of every record drop keeps. It is a valid segment
// in the original's own format, never re-encoded.
func survivorImage(data []byte, spans [][2]int64, drop []bool) []byte {
	img := append([]byte(nil), data[:segHeaderSize]...)
	for i, sp := range spans {
		if !drop[i] {
			img = append(img, data[sp[0]:sp[1]]...)
		}
	}
	return img
}

// droppableLocked returns how many of the segment's records compaction
// may shed without cutting any tagged family below its quota.
func (s *ExampleStore) droppableLocked(seg *segment) int {
	quota := s.opts.FamilyQuota
	n := 0
	for fam, c := range seg.fams {
		if quota <= 0 || fam == "" {
			n += c
		} else if over := s.famCounts[fam] - quota; over > 0 {
			n += min(c, over)
		}
	}
	return n
}

// plannedLocked finds the planned segment if it is still live at the
// byte watermark the pass planned against; -1 means retention deleted it
// or a competing pass rewrote it (a rewrite always sheds bytes), so the
// plan is void.
func (s *ExampleStore) plannedLocked(seg *segment, good int64) int {
	for i, live := range s.segments {
		if live == seg && seg.bytes == good {
			return i
		}
	}
	return -1
}

// Compact runs compaction passes until the corpus is back under its cap
// or no further record can be shed, returning the number of examples
// dropped. The retrainer's background loop calls it every poll while
// family quotas are on (before that poll's training pass); it is exported
// for tests and operational tooling.
func (s *ExampleStore) Compact() (int, error) {
	dropped := 0
	// One pass rewrites one segment, so passes are bounded by the segment
	// count at entry (plus slack for rotations racing in).
	for limit := s.Segments() + 2; limit > 0; limit-- {
		res, ok, err := s.CompactOnce()
		if err != nil || !ok {
			return dropped, err
		}
		dropped += res.Dropped
	}
	return dropped, nil
}
