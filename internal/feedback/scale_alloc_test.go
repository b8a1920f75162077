//go:build !race

package feedback

import (
	"testing"
)

// TestSnapshotWarmAllocBounded: once the decode cache is primed, a
// Snapshot allocates for the active tail and the assembly copy only —
// nowhere near the full-corpus decode a cold store pays. Guarded against
// the cold path itself (same corpus, cache disabled) instead of a brittle
// absolute count. Excluded under -race: AllocsPerRun is meaningless with
// the race runtime's extra allocations.
func TestSnapshotWarmAllocBounded(t *testing.T) {
	dir := t.TempDir()
	buildScaleCorpus(t, dir, 120)

	warm, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048})
	if err != nil {
		t.Fatal(err)
	}
	defer warm.Close()
	if _, err := warm.Snapshot(); err != nil { // prime the cache
		t.Fatal(err)
	}
	warmAllocs := testing.AllocsPerRun(10, func() {
		if _, err := warm.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})

	cold, err := OpenStore(dir, StoreOptions{MaxSegmentBytes: 2048, CacheBytes: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer cold.Close()
	coldAllocs := testing.AllocsPerRun(10, func() {
		if _, err := cold.Snapshot(); err != nil {
			t.Fatal(err)
		}
	})

	if warmAllocs*4 > coldAllocs {
		t.Fatalf("warm snapshot allocates %.0f, cold %.0f — cache not saving the re-decode", warmAllocs, coldAllocs)
	}
}
