// Package slotindex is an open-addressed hash index of slot numbers: the key
// index of a slab whose entries live by value in one slice. A cell holds a
// slot number, not a key, so the index costs 1⅓ to 2⅔ int32 cells per
// entry whatever the churn, where a Go map under insert/delete churn grows to
// several times its live keys.
//
// The caller owns the keys. A lookup takes the key's hash and a compare; the
// operations that move cells take a function that rehashes the key held in a
// slot. Probing is linear, the table doubles when ¾ full, and a removal
// shifts the rest of its probe run back, so no tombstone is ever left.
package slotindex

import "math/bits"

// None is the slot Find reports when no key matches.
const None int32 = -1

// minBits sizes an index's first table: 1<<minBits cells.
const minBits = 3

// Hash is FNV-1a over s, inline and allocation-free. The index takes a key's
// home cell from the top bits of its hash, leaving the low bits to the
// caller: the result cache picks a shard with them.
func Hash(s string) uint32 {
	h := uint32(2166136261)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= 16777619
	}
	return h
}

// Index maps hashes to slot numbers by linear probing. The zero value is an
// empty index. It is not safe for concurrent use.
type Index struct {
	// cells holds slot+1 (0 is an empty cell). Its length is zero or a power
	// of two at least 4n/3, so the load stays at ¾ or below. A hash's home
	// cell is its top bits, h >> shift, where shift = 32 − log2(len(cells)).
	cells []int32
	shift uint8
	n     int
}

// Len returns the number of slots indexed.
func (x *Index) Len() int { return x.n }

// Find returns the slot whose key hashes to h and satisfies match, or None.
func (x *Index) Find(h uint32, match func(slot int32) bool) int32 {
	if len(x.cells) == 0 {
		return None
	}
	mask := len(x.cells) - 1
	for pos := int(h >> x.shift); ; pos = (pos + 1) & mask {
		if v := x.cells[pos]; v == 0 || match(v-1) {
			return v - 1 // None for an empty cell
		}
	}
}

// Insert indexes slot under h, doubling the table first when it would pass
// ¾ full; hashOf rehashes the slots already indexed. slot must not be
// indexed already.
func (x *Index) Insert(slot int32, h uint32, hashOf func(slot int32) uint32) {
	if 4*(x.n+1) > 3*len(x.cells) {
		old := x.cells
		x.cells = make([]int32, max(2*len(old), 1<<minBits))
		x.shift = uint8(32 - bits.TrailingZeros(uint(len(x.cells))))
		for _, v := range old {
			if v != 0 {
				x.place(v-1, hashOf(v-1))
			}
		}
	}
	x.place(slot, h)
	x.n++
}

// place points the first empty cell of h's probe run at slot.
func (x *Index) place(slot int32, h uint32) {
	mask := len(x.cells) - 1
	pos := int(h >> x.shift)
	for x.cells[pos] != 0 {
		pos = (pos + 1) & mask
	}
	x.cells[pos] = slot + 1
}

// Delete takes slot, indexed under h, out of the index; hashOf rehashes the
// slots whose cells move. A slot that is not indexed is left alone.
func (x *Index) Delete(slot int32, h uint32, hashOf func(slot int32) uint32) {
	if len(x.cells) == 0 {
		return
	}
	mask := len(x.cells) - 1
	pos := int(h >> x.shift)
	for x.cells[pos] != slot+1 {
		if x.cells[pos] == 0 {
			return
		}
		pos = (pos + 1) & mask
	}
	// Backward shift: each later cell of the run that may sit at or before
	// the hole moves into it, so no lookup meets a gap inside its run.
	for j := (pos + 1) & mask; x.cells[j] != 0; j = (j + 1) & mask {
		home := int(hashOf(x.cells[j]-1) >> x.shift)
		// The cell at j may move to the hole unless its home lies
		// cyclically in (pos, j].
		if (j-home)&mask >= (j-pos)&mask {
			x.cells[pos] = x.cells[j]
			pos = j
		}
	}
	x.cells[pos] = 0
	x.n--
}
