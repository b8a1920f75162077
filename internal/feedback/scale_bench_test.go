package feedback

import "testing"

// BenchmarkCorpusSnapshot times one full corpus read — what every
// retrain pays before it fits — over a corpus spanning many sealed
// segments plus the active tail.
func BenchmarkCorpusSnapshot(b *testing.B) {
	dir := b.TempDir()
	buildScaleCorpus(b, dir, 2000)
	s, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
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
}
