package exec

import "math/bits"

// keyIndex numbers int64 keys densely in first-insertion order; it is the
// one index the hash operators keep. Slots form a power-of-two table of
// ordinal+1 (0 marks an empty slot), probed linearly from a
// multiplicative (Fibonacci) hash of the key, which takes the product's
// top bits so keys that agree in their low bits still spread. The keys
// themselves live densely by ordinal. The table doubles when an insert
// would fill more than half of it; sized from a hint of at least the
// number of distinct keys, it never does. The slot tables and the keys
// come from the run's scratch, so the slots start zero: empty.
type keyIndex struct {
	slots []int32
	keys  []int64 // keys[o] is the key with ordinal o
	shift uint    // 64 - log2(len(slots))
	sc    *scratch
}

const minKeySlots = 8

// newKeyIndex sizes the index for hint keys without growing, on memory
// from sc.
func newKeyIndex(hint int, sc *scratch) keyIndex {
	n := minKeySlots
	for n < 2*hint {
		n <<= 1
	}
	return keyIndex{
		slots: sc.ords.Take(n),
		keys:  sc.words.Take(hint)[:0],
		shift: uint(64 - bits.TrailingZeros(uint(n))),
		sc:    sc,
	}
}

// home is the first slot k's probe sequence visits.
func (x *keyIndex) home(k int64) int {
	return int(uint64(k) * 0x9e3779b97f4a7c15 >> x.shift)
}

// find returns k's ordinal, or -1 if k was never inserted.
func (x *keyIndex) find(k int64) int32 {
	mask := len(x.slots) - 1
	for i := x.home(k); ; i = (i + 1) & mask {
		if o := x.slots[i] - 1; o < 0 || x.keys[o] == k {
			return o
		}
	}
}

// insert returns k's ordinal, giving k the next one if it is new.
func (x *keyIndex) insert(k int64) (o int32, added bool) {
	if o = x.find(k); o >= 0 {
		return o, false
	}
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	x.keys = append(x.sc.words.Grow(x.keys), k)
	x.slots[x.free(k)] = int32(len(x.keys))
	return int32(len(x.keys) - 1), true
}

// free returns the first empty slot of k's probe sequence.
func (x *keyIndex) free(k int64) int {
	mask := len(x.slots) - 1
	i := x.home(k)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	return i
}

// grow doubles the slot table and re-slots every key by ordinal.
func (x *keyIndex) grow() {
	x.slots = x.sc.ords.Take(2 * len(x.slots))
	x.shift--
	for o, k := range x.keys {
		x.slots[x.free(k)] = int32(o + 1)
	}
}
