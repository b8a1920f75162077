package selection

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"hash/crc32"
	"math/rand"
	"strings"
	"testing"
	"time"

	"progressest/internal/mart"
	"progressest/internal/progress"
)

// fuzzSelector trains a small selector — three kinds over four features,
// two shallow trees each — whose file seeds the fuzz corpus; small seeds
// keep the fuzzer's minimisation of new inputs short.
func fuzzSelector(t testing.TB) *Selector {
	t.Helper()
	rng := rand.New(rand.NewSource(3))
	ex := make([]Example, 60)
	for i := range ex {
		ex[i].Features = []float64{rng.Float64(), rng.Float64(), rng.Float64(), rng.Float64()}
		for _, k := range progress.CoreKinds() {
			ex[i].ErrL1[k] = ex[i].Features[int(k)] * rng.Float64()
		}
	}
	s, err := Train(ex, Config{Kinds: progress.CoreKinds(), Mart: mart.Options{Trees: 2, MaxLeaves: 3, Seed: 1}})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// patchRoot rewrites one int32 field of the first model's first tree's
// root node (at byte offset field inside the node) and re-seals the
// checksum, so the fault reaches the model validator.
func patchRoot(data []byte, nf, field int, v int32) []byte {
	out := bytes.Clone(data)
	le := binary.LittleEndian
	nk := int(le.Uint32(out[len(selMagic)+5:]))
	// header, the model's length, then bias, NumFeature, importances,
	// the name count, the tree count and the root tree's node count.
	at := len(selMagic) + 4 + 1 + 4 + 4*nk + 4 + 8 + 4 + 8*nf + 4 + 4 + 4
	le.PutUint32(out[at+field:], uint32(v))
	body := out[:len(out)-4]
	le.PutUint32(out[len(body):], crc32.Checksum(body, castagnoli))
	return out
}

// FuzzLoadSelector: whatever the bytes, decoding returns an error or a
// selector — never a panic — and every selector it accepts predicts in
// finite steps, re-encodes without error, and, when it came from the
// binary format, re-encodes to exactly the input.
func FuzzLoadSelector(f *testing.F) {
	s := fuzzSelector(f)
	data, err := s.encode()
	if err != nil {
		f.Fatal(err)
	}
	nf := s.Models[s.Kinds[0]].NumFeature
	f.Add(data)
	for _, n := range []int{0, 1, len(selMagic) + 4, len(data) / 2, len(data) - 1} {
		f.Add(data[:n])
	}
	flipped := bytes.Clone(data)
	flipped[len(flipped)-1] ^= 0xff
	f.Add(flipped)
	for _, bad := range [][]byte{
		patchRoot(data, nf, 12, 0),        // Left: the root is its own child
		patchRoot(data, nf, 0, int32(nf)), // Feature: one past the vector
		patchRoot(data, nf, 16, 1<<20),    // Right: far past the tree
	} {
		if _, err := decode(bad); err == nil || !strings.Contains(err.Error(), "invalid model") {
			f.Fatalf("patched root: err = %v, want the validator's error", err)
		}
		f.Add(bad)
	}
	// A selector with no kinds, CRC-sealed and as JSON: nothing could
	// serve from it, so neither form loads and none is written.
	le := binary.LittleEndian
	empty := le.AppendUint32(append(le.AppendUint32([]byte(selMagic), SaveFormat), 0), 0)
	empty = le.AppendUint32(empty, crc32.Checksum(empty, castagnoli))
	for _, bad := range [][]byte{empty, []byte(`{"format":1,"kinds":[],"models":{}}`)} {
		if _, err := decode(bad); err == nil || !strings.Contains(err.Error(), " kinds") {
			f.Fatalf("zero-kind selector %q: err = %v, want it refused for its kinds", bad, err)
		}
		f.Add(bad)
	}
	if _, err := (&Selector{}).encode(); err == nil {
		f.Fatal("a zero-kind selector encoded")
	}
	legacy := struct { // the JSON form of format 1
		Format  int                    `json:"format"`
		Kinds   []int                  `json:"kinds"`
		Dynamic bool                   `json:"dynamic"`
		Models  map[string]*mart.Model `json:"models"`
	}{Format: 1, Dynamic: s.Dynamic, Models: map[string]*mart.Model{}}
	for _, k := range s.Kinds {
		legacy.Kinds = append(legacy.Kinds, int(k))
		legacy.Models[k.String()] = s.Models[k]
	}
	js, err := json.Marshal(legacy)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(js)

	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := decode(data)
		if err != nil {
			return
		}
		done := make(chan struct{})
		go func() {
			defer close(done)
			for _, k := range s.Kinds {
				m := s.Models[k]
				m.Predict(make([]float64, m.NumFeature))
			}
		}()
		select {
		case <-done:
		case <-time.After(10 * time.Second):
			t.Fatal("an accepted selector's prediction did not terminate")
		}
		again, err := s.encode()
		if err != nil {
			t.Fatalf("accepted selector does not re-encode: %v", err)
		}
		if data[0] != '{' && !bytes.Equal(again, data) {
			t.Fatal("binary selector re-encodes to different bytes")
		}
	})
}
