package feedback

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"sort"

	"progressest/internal/progress"
	"progressest/internal/selection"
)

// segment is one corpus file's bookkeeping, kept the same way for the
// active tail and for sealed segments: appends grow the tail's, and
// rotation simply stops growing it. Examples live on disk only — the
// store never mirrors the corpus in memory, and Snapshot reads it on
// demand (retrains are rare, serving-path memory is precious).
type segment struct {
	index int
	path  string
	count int
	// bytes is the good-byte watermark: the end of the last intact record.
	bytes int64
	// fams counts the segment's records per workload family — what the
	// retention and compaction quota checks read.
	fams map[string]int
}

// segFile is one seg-NNNNNNNN.log file of a corpus directory.
type segFile struct {
	path  string
	index int
}

// listSegments lists a corpus directory's segment files in index order.
// A seg-*.log name that does not parse is a foreign file, left alone.
func listSegments(dir string) ([]segFile, error) {
	names, err := filepath.Glob(filepath.Join(dir, "seg-*.log"))
	if err != nil {
		return nil, err
	}
	sort.Strings(names)
	var files []segFile
	for _, name := range names {
		var index int
		if _, err := fmt.Sscanf(filepath.Base(name), "seg-%08d.log", &index); err != nil {
			continue
		}
		files = append(files, segFile{name, index})
	}
	return files, nil
}

// openSegment reads one segment file's bookkeeping without materialising
// an example (see scanSegment). A sealed segment keeps its intact prefix
// and ignores the rest; the tail recovers with crash semantics — a torn
// or corrupt record at its end is truncated away so it can keep growing.
func openSegment(f segFile, tail bool) (*segment, error) {
	data, err := os.ReadFile(f.path)
	if err != nil {
		return nil, fmt.Errorf("feedback: read segment: %w", err)
	}
	if tail && len(data) < segHeaderSize {
		// A crash between create and header write; rewrite from scratch.
		data = segmentHeader()
		if err := os.WriteFile(f.path, data, 0o644); err != nil {
			return nil, fmt.Errorf("feedback: reset torn segment: %w", err)
		}
	}
	seg, err := scanSegment(data, f.path)
	if err != nil {
		return nil, err
	}
	seg.index = f.index
	if tail && seg.bytes < int64(len(data)) {
		if err := os.Truncate(f.path, seg.bytes); err != nil {
			return nil, fmt.Errorf("feedback: truncate torn tail: %w", err)
		}
	}
	return seg, nil
}

// scanSegment builds a segment image's bookkeeping — at open, and for a
// compacted image before it replaces the original. It decodes only each
// record's family tag, so a scan costs one CRC pass plus a cheap field
// skip per record.
func scanSegment(data []byte, path string) (*segment, error) {
	seg := &segment{path: path, fams: make(map[string]int)}
	good, err := walkRecords(data, path, func(_ int64, payload []byte) error {
		fam, err := decodeFamily(payload)
		if err != nil {
			return fmt.Errorf("feedback: %s: %w", path, err)
		}
		seg.fams[fam]++
		seg.count++
		return nil
	})
	seg.bytes = good
	return seg, err
}

// walkRecords validates a segment image's header, then calls fn on each
// intact record in file order with its start offset and payload. A torn
// or corrupt record ends the walk — everything after it is suspect — and
// is never an error: the returned watermark is the end of the last intact
// record, where a caller that owns the file truncates. An error from fn
// aborts the walk.
func walkRecords(data []byte, path string, fn func(off int64, payload []byte) error) (int64, error) {
	if _, err := segFormat(data, path); err != nil {
		return 0, err
	}
	off := int64(segHeaderSize)
	for off+recHeaderSize <= int64(len(data)) {
		n := int64(binary.LittleEndian.Uint32(data[off:]))
		sum := binary.LittleEndian.Uint32(data[off+4:])
		end := off + recHeaderSize + n
		if end > int64(len(data)) {
			break
		}
		payload := data[off+recHeaderSize : end]
		if crc32.ChecksumIEEE(payload) != sum {
			break
		}
		if err := fn(off, payload); err != nil {
			return 0, err
		}
		off = end
	}
	return off, nil
}

// scanRecords decodes every intact record of a segment image, returning
// the examples and the good-byte watermark (see walkRecords).
func scanRecords(data []byte, path string) ([]selection.Example, int64, error) {
	var exs []selection.Example
	good, err := walkRecords(data, path, func(_ int64, payload []byte) error {
		ex, err := decodeExample(payload)
		if err != nil {
			return fmt.Errorf("feedback: %s: %w", path, err)
		}
		exs = append(exs, ex)
		return nil
	})
	return exs, good, err
}

// segView is one segment file to read: its path and the good bytes to
// read of it (negative: the whole file).
type segView struct {
	path  string
	limit int64
}

// readSegments reads and decodes segment files in order, concatenating
// their examples — Snapshot's and ReadCorpus's one read path. Each read
// stops at its view's limit, so records appended after a store captured
// its views are excluded, and a file deleted since (retention) yields
// nothing. The output is sized from what the reads returned, never from
// a stale pre-capture count.
func readSegments(views []segView) ([]selection.Example, error) {
	parts := make([][]selection.Example, len(views))
	total := 0
	for i, v := range views {
		// Writes go straight to the file (no userspace buffering), so a
		// plain read sees every record appended so far.
		data, err := os.ReadFile(v.path)
		if os.IsNotExist(err) {
			continue
		}
		if err != nil {
			return nil, fmt.Errorf("feedback: read segment: %w", err)
		}
		if v.limit >= 0 && int64(len(data)) > v.limit {
			data = data[:v.limit]
		}
		if parts[i], _, err = scanRecords(data, v.path); err != nil {
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

func segmentHeader() []byte {
	h := make([]byte, segHeaderSize)
	copy(h, segMagic)
	binary.LittleEndian.PutUint32(h[len(segMagic):], storeFormat)
	return h
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
