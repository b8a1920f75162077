package engine

import (
	"context"
	"errors"
	"testing"
)

// BenchmarkGateAdmit measures the admission hot path — one Admit and
// its Release — on a fixed pool under parallel load. Tracked in the CI
// bench-smoke artifact.
func BenchmarkGateAdmit(b *testing.B) {
	b.Run("fixed", func(b *testing.B) {
		g := NewGate(Config{Shards: 4, MaxLivePerShard: 64, QueueDepth: 64})
		b.ReportAllocs()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s, err := g.Admit(context.Background())
				if err != nil {
					if errors.Is(err, ErrSaturated) {
						continue
					}
					b.Fatal(err)
				}
				s.Release()
			}
		})
	})
}
