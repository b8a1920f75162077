package exec

import (
	"encoding/binary"
	"slices"
	"testing"
)

// FuzzKeyIndex checks keyIndex against a Go map over a sequence of
// operations decoded from the input, one op byte each, its low two bits
// choosing:
//
//	0: insert the int64 in the next 8 bytes;
//	1: insert int8(next byte) << s + 5, s from the op byte's high bits —
//	   keys equal modulo 2^s, which a hash of the low bits would pile up;
//	2: find the int64 in the next 8 bytes;
//	3: insert int8(next byte): zero, negatives and repeats.
//
// Ordinals must follow first insertion, every key must be found after
// every growth, absent keys must miss, and a table sized from a hint at
// least the number of distinct keys must never grow. Every input's index
// is built on the one scratch the inputs before it used and reset, the
// way a run's index reuses the last run's memory: its slot table must
// start empty, and a slot or key an earlier input left behind turns up
// as a wrong ordinal or a found absent key.
func FuzzKeyIndex(f *testing.F) {
	var sc scratch
	f.Add(uint16(0), []byte{})
	f.Add(uint16(0), []byte{3, 0, 3, 0xff, 3, 0x80, 3, 1, 3, 0xff, 2, 0, 0, 0, 0, 0, 0, 0, 0})
	f.Add(uint16(4), []byte{1, 1, 1, 2, 1, 3, 1, 0xff, 0xfd, 1, 0xfd, 2, 0xfd, 3, 0xfd, 0xfe})
	f.Add(uint16(2), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 0, 8, 7, 6, 5, 4, 3, 2, 1, 0x7d, 9, 0x7d, 10})
	f.Fuzz(func(t *testing.T, hint uint16, ops []byte) {
		defer sc.reset()
		x := newKeyIndex(int(hint%512), &sc)
		if i := slices.IndexFunc(x.slots, func(s int32) bool { return s != 0 }); i >= 0 {
			t.Fatalf("reused slot table holds %d at %d before any insert", x.slots[i], i)
		}
		initSlots := len(x.slots)
		ref := map[int64]int32{}
		var order []int64

		checkAll := func(when string) {
			for k, o := range ref {
				if got := x.find(k); got != o {
					t.Fatalf("%s: find(%d) = %d, want %d", when, k, got, o)
				}
				if _, in := ref[k+1]; !in {
					if got := x.find(k + 1); got != -1 {
						t.Fatalf("%s: find(%d) = %d for an absent key", when, k+1, got)
					}
				}
			}
		}
		word := func() (int64, bool) {
			if len(ops) < 8 {
				return 0, false
			}
			k := int64(binary.LittleEndian.Uint64(ops))
			ops = ops[8:]
			return k, true
		}
		small := func() (int64, bool) {
			if len(ops) < 1 {
				return 0, false
			}
			k := int64(int8(ops[0]))
			ops = ops[1:]
			return k, true
		}

		for len(ops) > 0 {
			op := ops[0]
			ops = ops[1:]
			var k int64
			var ok bool
			switch op & 3 {
			case 0:
				k, ok = word()
			case 1:
				k, ok = small()
				k = k<<(op>>2) + 5
			case 2:
				if k, ok = word(); ok {
					want, in := ref[k]
					if !in {
						want = -1
					}
					if got := x.find(k); got != want {
						t.Fatalf("find(%d) = %d, want %d", k, got, want)
					}
				}
				continue
			case 3:
				k, ok = small()
			}
			if !ok {
				continue
			}
			slots := len(x.slots)
			o, added := x.insert(k)
			want, in := ref[k]
			if !in {
				want = int32(len(order))
				ref[k] = want
				order = append(order, k)
			}
			if o != want || added == in {
				t.Fatalf("insert(%d) = %d, %v; want %d, %v", k, o, added, want, !in)
			}
			if 2*len(order) > len(x.slots) {
				t.Fatalf("%d keys in %d slots: more than half full", len(order), len(x.slots))
			}
			if len(x.slots) != slots {
				if len(order) <= int(hint%512) {
					t.Fatalf("grew at %d keys though sized for %d", len(order), hint%512)
				}
				checkAll("after growth")
			}
		}
		if !slices.Equal(x.keys, order) {
			t.Fatalf("keys %v, want first-insertion order %v", x.keys, order)
		}
		if len(order) <= int(hint%512) && len(x.slots) != initSlots {
			t.Fatalf("%d keys grew a table sized for %d", len(order), hint%512)
		}
		checkAll("at the end")
	})
}
