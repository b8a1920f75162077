package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"progressest/internal/datagen"
	"progressest/internal/exec"
	"progressest/internal/workload"
)

// referenceDecodeBatch is the decoder DecodeBatch replaced — reflection
// over the Batch struct tags with unknown fields disallowed — kept as the
// differential oracle: every batch the grammar decoder accepts must come
// out of this one deeply equal.
func referenceDecodeBatch(data []byte) (*Batch, error) {
	if len(data) > MaxBatchBytes {
		return nil, fmt.Errorf("%w: %d bytes", ErrBatchTooLarge, len(data))
	}
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var b Batch
	if err := dec.Decode(&b); err != nil {
		return nil, fmt.Errorf("ingest: invalid batch: %w", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after body", ErrInvalid)
	}
	for i, ev := range b.Events {
		if (ev.Start == nil) == (ev.Snapshot == nil) {
			return nil, fmt.Errorf("%w: event %d must set exactly one of start/snapshot", ErrInvalid, i)
		}
	}
	return &b, nil
}

// The three documented ways the grammar is stricter than the reference,
// each with the text DecodeBatch's error carries for it.
const (
	classNull      = "null"
	classInexact   = "unknown field"   // a key the reference matched by case folding or through an escape
	classDuplicate = "duplicate field" // a key repeated inside one object
)

var grammarKeys = map[string]bool{
	"events": true, "done": true, "ends": true, "start": true, "snapshot": true, "pipeline": true,
	"time": true, "deltas": true, "node": true, "k": true, "r": true, "w": true,
}

// stricterClass names the first of those three, in document order, that
// a body the reference accepted contains ("" if none does). It needs no
// shapes: the reference rejects a key its struct does not have, so any
// key it let through that is not a grammar key byte for byte was matched
// loosely.
func stricterClass(data []byte) string {
	type frame struct {
		object  bool
		wantKey bool
		seen    map[string]bool
	}
	var stack []frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return ""
		}
		top := len(stack) - 1
		if top >= 0 && stack[top].object && stack[top].wantKey {
			if d, ok := tok.(json.Delim); ok && d == '}' {
				stack = stack[:top]
				continue
			}
			key := tok.(string)
			if !grammarKeys[key] || !bytes.HasSuffix(data[:dec.InputOffset()], []byte(`"`+key+`"`)) {
				return classInexact
			}
			if stack[top].seen[key] {
				return classDuplicate
			}
			stack[top].seen[key] = true
			stack[top].wantKey = false
			continue
		}
		if top >= 0 && stack[top].object {
			stack[top].wantKey = true // whatever tok is, it is (or opens) this member's value
		}
		switch v := tok.(type) {
		case nil:
			return classNull
		case json.Delim:
			switch v {
			case '{':
				stack = append(stack, frame{object: true, wantKey: true, seen: map[string]bool{}})
			case '[':
				stack = append(stack, frame{})
			case ']':
				stack = stack[:top]
			}
		}
	}
}

// checkAgainstReference is the differential contract on one body: what
// DecodeBatch accepts the reference accepts, to the same Batch; what only
// the reference accepts is refused for a documented reason, with the
// error saying which.
func checkAgainstReference(t *testing.T, dec *BatchDecoder, data []byte) (*Batch, error) {
	t.Helper()
	got, err := dec.Decode(data)
	want, refErr := referenceDecodeBatch(data)
	switch {
	case err == nil && refErr != nil:
		t.Fatalf("DecodeBatch accepted what the reference refuses (%v): %q", refErr, data)
	case err == nil && !reflect.DeepEqual(got, want):
		t.Fatalf("decoders disagree on %q:\n got %s\nwant %s", data, dump(got), dump(want))
	case err != nil && refErr == nil:
		class := stricterClass(data)
		if class == "" {
			t.Fatalf("DecodeBatch refuses (%v) a body the reference accepts, outside the documented classes: %q", err, data)
		}
		if !strings.Contains(err.Error(), class) {
			t.Fatalf("body %q is stricter-class %q, but DecodeBatch says: %v", data, class, err)
		}
	}
	return got, err
}

func dump(b *Batch) string {
	out, _ := json.Marshal(b)
	return string(out)
}

// recordedTraces runs a few queries of each dataset family at a small
// scale: the plans and counter profiles the recorded-batch tests decode.
func recordedTraces(t testing.TB, queries int) []*exec.Trace {
	t.Helper()
	var out []*exec.Trace
	for _, kind := range []datagen.DatasetKind{datagen.TPCHLike, datagen.TPCDSLike, datagen.Real1Like, datagen.Real2Like} {
		w, err := workload.Build(workload.Spec{Name: kind.String(), Kind: kind, Queries: queries, Scale: 0.08, Seed: 7})
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range w.Queries {
			pl, err := w.Planner.Plan(q)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, exec.Run(w.DB, pl, exec.Options{}))
		}
	}
	return out
}

// TestDecodeBatchMatchesReference decodes every recorded batch of small
// TPCH / TPCDS / Real1 / Real2 workloads, at batch sizes from one
// snapshot to a whole session, with a fresh decoder and with one reused
// across all of them, and requires the reference's Batch each time.
func TestDecodeBatchMatchesReference(t *testing.T) {
	var reused BatchDecoder
	batches, mutated := 0, false
	for _, tr := range recordedTraces(t, 4) {
		for _, size := range []int{1, 5, 16, 64} {
			for _, b := range RecordBatches(tr, size) {
				wire, err := json.Marshal(b)
				if err != nil {
					t.Fatal(err)
				}
				for _, dec := range []*BatchDecoder{new(BatchDecoder), &reused} {
					got, err := checkAgainstReference(t, dec, wire)
					if err != nil {
						t.Fatalf("recorded batch refused: %v", err)
					}
					if mutated {
						continue
					}
					// The comparison has teeth: one delta dropped from one
					// snapshot of the decoded batch must read as a mismatch.
					for _, ev := range got.Events {
						if ev.Snapshot != nil && len(ev.Snapshot.Deltas) > 0 {
							want, _ := referenceDecodeBatch(wire)
							ev.Snapshot.Deltas = ev.Snapshot.Deltas[:len(ev.Snapshot.Deltas)-1]
							if reflect.DeepEqual(got, want) {
								t.Fatal("a batch with its last delta dropped still equals the reference")
							}
							mutated = true
							break
						}
					}
				}
				batches++
			}
		}
	}
	if batches < 100 || !mutated {
		t.Fatalf("decoded %d recorded batches (mutation checked: %v); the fixture shrank", batches, mutated)
	}
}

// TestDecodeBatchSlabGrowth packs far more items into a body than the
// fresh slabs are sized for, so every slab moves mid-parse and the batch
// must still address the final arrays.
func TestDecodeBatchSlabGrowth(t *testing.T) {
	var sb strings.Builder
	sb.WriteString(`{"events":[`)
	for i := 0; i < 200; i++ {
		if i > 0 {
			sb.WriteByte(',')
		}
		if i%3 == 0 {
			fmt.Fprintf(&sb, `{"start":{"pipeline":%d}}`, i)
			continue
		}
		sb.WriteString(`{"snapshot":{"deltas":[`)
		for j := 0; j < i%7; j++ {
			if j > 0 {
				sb.WriteByte(',')
			}
			fmt.Fprintf(&sb, `{"k":%d}`, i*10+j)
		}
		sb.WriteString(`]}}`)
	}
	sb.WriteString(`],"ends":[{},{},{},{},{},{},{},{},{}]}`)
	if _, err := checkAgainstReference(t, new(BatchDecoder), []byte(sb.String())); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecodeBatch decodes one recorded 16-snapshot batch — the
// benchmark's batch size — through DecodeBatch (memory the caller owns)
// and through a reused decoder (what the observations route does).
func BenchmarkDecodeBatch(b *testing.B) {
	var wire []byte
	for _, tr := range recordedTraces(b, 2) {
		// The largest first batch: a plan with many active nodes.
		w, err := json.Marshal(RecordBatches(tr, 16)[0])
		if err != nil {
			b.Fatal(err)
		}
		if len(w) > len(wire) {
			wire = w
		}
	}
	b.Run("fresh", func(b *testing.B) {
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := DecodeBatch(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("reused", func(b *testing.B) {
		var dec BatchDecoder
		b.SetBytes(int64(len(wire)))
		b.ReportAllocs()
		for b.Loop() {
			if _, err := dec.Decode(wire); err != nil {
				b.Fatal(err)
			}
		}
	})
}
