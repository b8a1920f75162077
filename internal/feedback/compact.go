package feedback

import (
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// Compaction rewrites sealed segments in place to shed abundant records
// while the corpus is over its retention cap, instead of (or before)
// whole-segment deletion. The unit of loss is the (family, signature)
// group: groups with many retained records are downsampled first and
// hardest, so a rare pipeline shape's examples outlive an abundant
// shape's, and no tagged family is ever cut below its retention quota.
// The rewritten file is a byte-for-byte valid segment — the original
// header followed by the surviving records' original bytes — so the
// sealed-segment reader, in-memory index, decode cache and family-sliced
// snapshots work on it unchanged.

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
// that the segment is still the one planned against before renaming over
// it, so a concurrent retention delete simply voids the pass.
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
	for _, seg := range s.segments[:len(s.segments)-1] {
		if seg.sealed() && s.droppableLocked(seg) > 0 {
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
	path, oldIdx := victim.path, victim.idx
	s.mu.Unlock()

	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return CompactionResult{}, false, nil // retention beat us to it
	}
	if err != nil {
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	if int64(len(data)) > oldIdx.good {
		data = data[:oldIdx.good] // ignore any post-seal foreign growth
	}
	fams := make([]string, len(oldIdx.offsets))
	sigs := make([]string, len(oldIdx.offsets))
	for i, off := range oldIdx.offsets {
		_, payload, ok := recordAt(data, off)
		if !ok {
			return CompactionResult{}, false, fmt.Errorf("feedback: compact: %s: record %d does not match its index", path, i)
		}
		ex, err := decodeExample(payload)
		if err != nil {
			return CompactionResult{}, false, fmt.Errorf("feedback: compact: %s: %w", path, err)
		}
		fams[i], sigs[i] = ex.Family, ex.Signature
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

	if dropped == len(oldIdx.offsets) {
		// Every record goes: remove the whole segment.
		s.mu.Lock()
		defer s.mu.Unlock()
		i := s.segmentAtLocked(path, oldIdx)
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

	// Rewrite: original header, then the survivors' original record
	// bytes. The image is a valid segment in the victim's own format.
	img := make([]byte, 0, int64(len(data))-int64(dropped)*recHeaderSize)
	img = append(img, data[:segHeaderSize]...)
	for i, off := range oldIdx.offsets {
		if !drop[i] {
			img = append(img, data[off:oldIdx.recordEnd(i)]...)
		}
	}
	newIdx, err := buildSegIndex(img, path)
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
	i := s.segmentAtLocked(path, oldIdx)
	if i < 0 {
		os.Remove(tmpPath)
		return CompactionResult{}, false, nil
	}
	if err := os.Rename(tmpPath, path); err != nil {
		os.Remove(tmpPath)
		return CompactionResult{}, false, fmt.Errorf("feedback: compact: %w", err)
	}
	seg := s.segments[i]
	if s.cache != nil {
		s.cache.remove(seg.cacheKey())
	}
	seg.gen++
	seg.idx = newIdx
	seg.count = len(newIdx.offsets)
	seg.bytes = newIdx.good
	s.total -= dropped
	for ord, d := range drop {
		if !d {
			continue
		}
		f := fams[ord]
		s.famCounts[f]--
		if s.famCounts[f] <= 0 {
			delete(s.famCounts, f)
		}
	}
	s.compactRuns++
	s.compactedSegs++
	s.compactDropped += dropped
	// Shedding here may have unblocked whole-segment retention elsewhere.
	s.enforceRetentionLocked()
	return res, true, nil
}

// droppableLocked returns how many of the segment's records compaction
// may shed without cutting any tagged family below its quota.
func (s *ExampleStore) droppableLocked(seg *segment) int {
	quota := s.opts.FamilyQuota
	n := 0
	seg.forEachFamilyCount(func(fam string, c int) {
		if quota <= 0 || fam == "" {
			n += c
			return
		}
		if over := s.famCounts[fam] - quota; over > 0 {
			n += min(c, over)
		}
	})
	return n
}

// segmentAtLocked finds the live segment whose path AND index identity
// match what a compaction pass planned against; -1 means retention or a
// competing pass invalidated the plan.
func (s *ExampleStore) segmentAtLocked(path string, idx *segIndex) int {
	for i, seg := range s.segments {
		if seg.path == path && seg.idx == idx {
			return i
		}
	}
	return -1
}

// Compact runs compaction passes until the corpus is back under its cap
// or no further record can be shed, returning the number of examples
// dropped. It is what the background Compactor calls each tick, exported
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

// Compactor periodically compacts a store in the background, in the same
// start/stop idiom as the Retrainer.
type Compactor struct {
	store    *ExampleStore
	interval time.Duration

	mu      sync.Mutex
	lastErr error

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// NewCompactor creates a background compactor ticking at interval
// (default 30s when <= 0).
func NewCompactor(store *ExampleStore, interval time.Duration) *Compactor {
	if interval <= 0 {
		interval = 30 * time.Second
	}
	return &Compactor{
		store:    store,
		interval: interval,
		stop:     make(chan struct{}),
		done:     make(chan struct{}),
	}
}

// Start launches the background loop. It is idempotent.
func (c *Compactor) Start() {
	c.startOnce.Do(func() {
		go c.loop()
	})
}

// Stop halts the background loop and waits for it to exit. A compaction
// pass in flight completes first. Stop is idempotent and safe without
// Start.
func (c *Compactor) Stop() {
	c.stopOnce.Do(func() { close(c.stop) })
	c.startOnce.Do(func() { close(c.done) }) // never started: nothing to drain
	<-c.done
}

func (c *Compactor) loop() {
	defer close(c.done)
	t := time.NewTicker(c.interval)
	defer t.Stop()
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
			_, err := c.store.Compact()
			c.mu.Lock()
			c.lastErr = err
			c.mu.Unlock()
		}
	}
}

// LastError reports the most recent tick's error (nil when healthy).
func (c *Compactor) LastError() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lastErr
}
