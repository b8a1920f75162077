package feedback

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"

	"progressest/internal/progress"
)

// segIndex is a sealed segment's in-memory index: the byte offset of every
// record and, per workload family, the ordinals of its records. It is
// derived state, never stored — buildSegIndex rebuilds it from the
// segment's bytes at open, and sealing the tail freezes the bookkeeping
// appends already maintain. It is immutable once built (sealed segments
// never change), so Snapshot/SnapshotFamily read it without the store lock.
type segIndex struct {
	good     int64 // byte watermark of the last intact record
	offsets  []int64
	families map[string][]int32
}

// recordEnd returns the exclusive end offset of record ord.
func (ix *segIndex) recordEnd(ord int) int64 {
	if ord+1 < len(ix.offsets) {
		return ix.offsets[ord+1]
	}
	return ix.good
}

// segFormat validates a segment image's header — magic, and a format
// version this build reads — and returns the format.
func segFormat(data []byte, path string) (int, error) {
	if len(data) < segHeaderSize || string(data[:len(segMagic)]) != segMagic {
		return 0, fmt.Errorf("feedback: %s is not a corpus segment (bad magic)", path)
	}
	format := int(binary.LittleEndian.Uint32(data[len(segMagic):segHeaderSize]))
	if format < minFormat || format > storeFormat {
		return 0, fmt.Errorf("feedback: %s uses corpus format %d; this build understands formats %d..%d — retrain or migrate the corpus",
			path, format, minFormat, storeFormat)
	}
	return format, nil
}

// buildSegIndex scans a segment image and builds its index — at open for
// every segment, and for a compacted image before it replaces the
// original. It walks records exactly like scanRecords (torn or corrupt
// trailing records end the segment, never error) but decodes only each
// record's family tag, so a build costs one CRC pass plus a cheap field
// skip per record — no example materialisation.
func buildSegIndex(data []byte, path string) (*segIndex, error) {
	if _, err := segFormat(data, path); err != nil {
		return nil, err
	}
	ix := &segIndex{families: make(map[string][]int32)}
	off := int64(segHeaderSize)
	for {
		n, payload, ok := recordAt(data, off)
		if !ok {
			break
		}
		fam, err := decodeFamily(payload)
		if err != nil {
			return nil, fmt.Errorf("feedback: %s: %w", path, err)
		}
		ix.families[fam] = append(ix.families[fam], int32(len(ix.offsets)))
		ix.offsets = append(ix.offsets, off)
		off += recHeaderSize + int64(n)
	}
	ix.good = off
	return ix, nil
}

// recordAt validates the record framed at off: header in bounds, payload
// in bounds, CRC intact. It returns the payload length and slice; ok is
// false for a torn or corrupt record.
func recordAt(data []byte, off int64) (n int, payload []byte, ok bool) {
	if off < 0 || off+recHeaderSize > int64(len(data)) {
		return 0, nil, false
	}
	n = int(binary.LittleEndian.Uint32(data[off:]))
	sum := binary.LittleEndian.Uint32(data[off+4:])
	if off+recHeaderSize+int64(n) > int64(len(data)) {
		return 0, nil, false
	}
	payload = data[off+recHeaderSize : off+recHeaderSize+int64(n)]
	if crc32.ChecksumIEEE(payload) != sum {
		return 0, nil, false
	}
	return n, payload, true
}

// decodeFamily extracts just the family tag from a record payload,
// skipping every other field without materialising it. It shares
// decodeExample's structural validation of the prefix it walks — in
// particular the estimator-kind count, so estimator-set/version skew
// still surfaces at open time even when no full decode happens.
func decodeFamily(b []byte) (string, error) {
	r := reader{b: b}
	nf := r.uint32()
	if nf > uint32(len(b)) {
		return "", errCorruptFeatureCount
	}
	r.skip(int(nf) * 8)
	nk := r.uint32()
	if r.err == nil && nk != uint32(progress.TotalKinds) {
		return "", fmt.Errorf("corpus written with %d estimator kinds; this build has %d — the corpus must be re-harvested", nk, progress.TotalKinds)
	}
	r.skip(2 * progress.TotalKinds * 8)
	r.skipString() // workload
	r.skipString() // signature
	fam := r.string()
	if r.err != nil {
		return "", fmt.Errorf("corrupt example: %w", r.err)
	}
	return fam, nil
}
