package feedback

import (
	"testing"

	"progressest/internal/selection"
)

// benchCorpusN sizes the benchmark corpora: large enough that decode cost
// dominates file-system noise, small enough for the CI bench-smoke run.
const benchCorpusN = 2000

// BenchmarkSnapshotColdWarm contrasts a full-corpus decode (cache off)
// with a cache-primed snapshot that only re-decodes the active tail.
func BenchmarkSnapshotColdWarm(b *testing.B) {
	dir := b.TempDir()
	buildScaleCorpus(b, dir, benchCorpusN)

	b.Run("cold", func(b *testing.B) {
		s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048, CacheBytes: -1})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("warm", func(b *testing.B) {
		s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
		if err != nil {
			b.Fatal(err)
		}
		defer s.Close()
		if _, err := s.Snapshot(); err != nil { // prime the cache
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Snapshot(); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkSnapshotFamily contrasts the index-guided per-family read with
// what a drift retrain used to pay: decode everything, filter after.
// Cache off on both sides so the index's I/O saving is what's measured.
func BenchmarkSnapshotFamily(b *testing.B) {
	dir := b.TempDir()
	buildScaleCorpus(b, dir, benchCorpusN)
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048, CacheBytes: -1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()

	b.Run("indexed", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.SnapshotFamily("alpha"); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fullscan", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			full, err := s.Snapshot()
			if err != nil {
				b.Fatal(err)
			}
			var out []selection.Example
			for _, ex := range full {
				if ex.Family == "alpha" {
					out = append(out, ex)
				}
			}
			if len(out) == 0 {
				b.Fatal("filter found nothing")
			}
		}
	})
}
