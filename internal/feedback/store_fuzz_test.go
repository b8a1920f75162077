// Fuzz and exhaustive corruption tests for the corpus record encoding —
// the bytes the drift join's harvested errors ride on. The properties
// under test: scanRecords never panics or over-reads on arbitrary bytes,
// its good-byte watermark is a stable prefix (rescanning the prefix
// reproduces it), the record layout round-trips losslessly, and a
// store survives a torn tail or a flipped bit at EVERY byte offset with
// the maximal intact prefix recovered.
package feedback

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// segmentImage builds an in-memory segment file of the given format from
// raw record payloads.
func segmentImage(format int, payloads ...[]byte) []byte {
	img := make([]byte, segHeaderSize)
	copy(img, segMagic)
	binary.LittleEndian.PutUint32(img[len(segMagic):], uint32(format))
	for _, p := range payloads {
		var hdr [recHeaderSize]byte
		binary.LittleEndian.PutUint32(hdr[:], uint32(len(p)))
		binary.LittleEndian.PutUint32(hdr[4:], crc32.ChecksumIEEE(p))
		img = append(img, hdr[:]...)
		img = append(img, p...)
	}
	return img
}

// FuzzScanRecords: on arbitrary bytes the segment scanner must never
// panic, must keep its watermark inside the data, and the watermark must
// be a stable prefix — scanning data[:good] again yields the same
// records. Seeds cover a valid image, a refused format-1 image, torn
// tails and CRC corruption.
func FuzzScanRecords(f *testing.F) {
	ex := mkExample(3)
	ex.Family = "fam"
	v2Payload, err := encodeExample(&ex)
	if err != nil {
		f.Fatal(err)
	}

	v2img := segmentImage(2, v2Payload, v2Payload)
	v1img := segmentImage(1, v2Payload) // unreadable format: must error
	f.Add(v2img)
	f.Add(v1img)
	f.Add(v2img[:len(v2img)-5])         // torn payload
	f.Add(v2img[:segHeaderSize+3])      // torn record header
	f.Add(segmentImage(2))              // header only
	f.Add([]byte("PESTCORPxxxx"))       // bad format bytes
	f.Add([]byte("not a segment file")) // bad magic
	corrupt := append([]byte(nil), v2img...)
	corrupt[segHeaderSize+recHeaderSize+4] ^= 0xFF // flip payload byte of record 1
	f.Add(corrupt)

	f.Fuzz(func(t *testing.T, data []byte) {
		exs, good, err := scanRecords(data, "fuzz")
		if err != nil {
			return
		}
		if good < int64(segHeaderSize) || good > int64(len(data)) {
			t.Fatalf("watermark %d outside [%d,%d]", good, segHeaderSize, len(data))
		}
		seg, err := scanSegment(data, "fuzz")
		if err != nil || seg.count != len(exs) || seg.bytes != good {
			t.Fatalf("bookkeeping scan disagrees: %+v, err %v; decoded %d examples to %d", seg, err, len(exs), good)
		}
		format, _ := segFormat(data, "fuzz")
		exs2, good2, err := scanRecords(data[:good], "fuzz")
		if err != nil {
			t.Fatalf("rescan of the good prefix failed: %v", err)
		}
		format2, _ := segFormat(data[:good], "fuzz")
		if len(exs2) != len(exs) || good2 != good || format2 != format {
			t.Fatalf("prefix rescan unstable: count %d->%d good %d->%d format %d->%d",
				len(exs), len(exs2), good, good2, format, format2)
		}
		if !reflect.DeepEqual(exs, exs2) {
			t.Fatal("prefix rescan decoded different examples")
		}
	})
}

// FuzzDecodeExample: arbitrary payload bytes must error or round-trip,
// never panic or over-allocate past the input.
func FuzzDecodeExample(f *testing.F) {
	ex := mkExample(11)
	ex.Family = "f"
	v2, err := encodeExample(&ex)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(v2)
	f.Add(append(v2[:len(v2):len(v2)], 0)) // trailing byte
	f.Add([]byte{})
	f.Add(v2[:len(v2)/2])

	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeExample(payload)
		if err != nil {
			return
		}
		// A clean decode must re-encode and decode to the same value.
		// Compared as ENCODED BYTES: the canonical encoding is
		// deterministic and, unlike reflect.DeepEqual, survives NaN bit
		// patterns a fuzzed payload can carry.
		enc, err := encodeExample(&got)
		if err != nil {
			t.Fatalf("re-encode of decoded example failed: %v", err)
		}
		again, err := decodeExample(enc)
		if err != nil {
			t.Fatalf("decode(encode(decode(x))) failed: %v", err)
		}
		enc2, err := encodeExample(&again)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("round trip diverged:\n got %+v\nthen %+v", got, again)
		}
	})
}

// TestStoreTornTailEveryOffset truncates a real segment at every byte
// offset and reopens the store: recovery must keep exactly the records
// that fit intact before the cut, truncate the torn remainder, and leave
// the store appendable.
func TestStoreTornTailEveryOffset(t *testing.T) {
	base := t.TempDir()
	store, err := OpenStore(base, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	var ends []int // byte offset of each record's end
	off := segHeaderSize
	for i := 0; i < 3; i++ {
		ex := mkExample(i)
		ex.Family = "fam"
		if err := store.Append(ex); err != nil {
			t.Fatal(err)
		}
		p, err := encodeExample(&ex)
		if err != nil {
			t.Fatal(err)
		}
		off += recHeaderSize + len(p)
		ends = append(ends, off)
	}
	store.Close()
	seg := filepath.Join(base, "seg-00000001.log")
	img, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if len(img) != off {
		t.Fatalf("segment is %d bytes, bookkeeping says %d", len(img), off)
	}

	for cut := segHeaderSize; cut <= len(img); cut++ {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), img[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		wantRecords := 0
		for _, e := range ends {
			if cut >= e {
				wantRecords++
			}
		}
		s, err := OpenStore(dir, StoreOptions{})
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if s.Len() != wantRecords {
			t.Fatalf("cut %d: recovered %d records, want %d", cut, s.Len(), wantRecords)
		}
		// The torn remainder must be gone and the store appendable.
		if err := s.Append(mkExample(9)); err != nil {
			t.Fatalf("cut %d: append after recovery: %v", cut, err)
		}
		exs, err := s.Snapshot()
		if err != nil || len(exs) != wantRecords+1 {
			t.Fatalf("cut %d: snapshot after append: %d examples, err %v", cut, len(exs), err)
		}
		s.Close()
	}
}

// TestStoreCRCCorruptionEveryByte flips each byte of the middle record
// (header and payload) in a sealed three-record segment: the scan must
// keep record 1, drop the corrupted record 2 and the now-suspect record
// 3, and never error or panic.
func TestStoreCRCCorruptionEveryByte(t *testing.T) {
	var payloads [][]byte
	for i := 0; i < 3; i++ {
		ex := mkExample(i)
		ex.Family = "fam"
		p, err := encodeExample(&ex)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, p)
	}
	img := segmentImage(2, payloads...)
	rec2 := segHeaderSize + recHeaderSize + len(payloads[0]) // start of record 2
	rec2end := rec2 + recHeaderSize + len(payloads[1])

	for off := rec2; off < rec2end; off++ {
		mut := append([]byte(nil), img...)
		mut[off] ^= 0x01
		exs, good, err := scanRecords(mut, "crc")
		if err != nil {
			t.Fatalf("offset %d: scan errored: %v", off, err)
		}
		// Flipping a length byte can make record 2 swallow record 3 yet
		// still fail CRC; in every case at most record 1 survives.
		if len(exs) != 1 {
			t.Fatalf("offset %d: %d records survived, want 1", off, len(exs))
		}
		if good != int64(rec2) {
			t.Fatalf("offset %d: watermark %d, want %d (end of record 1)", off, good, rec2)
		}
	}

	// Intact image as control: all three records scan.
	if exs, good, err := scanRecords(img, "crc"); err != nil || len(exs) != 3 || good != int64(len(img)) {
		t.Fatalf("control scan: count %d good %d err %v", len(exs), good, err)
	}

	// CRC corruption in the TAIL segment of a live store heals on reopen:
	// the torn suffix is truncated away and appends continue.
	dir := t.TempDir()
	mut := append([]byte(nil), img...)
	mut[rec2+recHeaderSize] ^= 0xFF
	if err := os.WriteFile(filepath.Join(dir, "seg-00000001.log"), mut, 0o644); err != nil {
		t.Fatal(err)
	}
	s, err := OpenStore(dir, StoreOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Len() != 1 {
		t.Fatalf("recovered %d records, want 1", s.Len())
	}
	if err := s.Append(mkExample(5)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "seg-00000001.log"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data[:rec2], img[:rec2]) {
		t.Fatal("recovery damaged the intact prefix")
	}
	if exs, _, err := scanRecords(data, "healed"); err != nil || len(exs) != 2 {
		t.Fatalf("healed segment: count %d err %v", len(exs), err)
	}
}
