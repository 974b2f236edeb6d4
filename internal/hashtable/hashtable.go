// Package hashtable implements the cache-conscious bucket-chained hash
// table used in the build-probe phase of the radix hash join, following
// the array-based layout of Balkesen et al. (reference [4] of the paper):
// a power-of-two bucket directory of int32 heads and a parallel next[]
// chain over the build-side tuple indexes. For cache-sized partitions the
// whole structure stays resident in the private CPU cache.
package hashtable

import (
	"encoding/binary"

	"rackjoin/internal/relation"
)

// fibMix is the 64-bit Fibonacci hashing multiplier. Tuples inside a radix
// partition share their low key bits, so the directory index must come
// from mixed high bits.
const fibMix = 0x9E3779B97F4A7C15

// Table is a read-only hash table over the tuples of one build-side
// partition.
type Table struct {
	rel    *relation.Relation
	bucket []int32 // 1-based tuple index of chain head; 0 = empty
	next   []int32 // 1-based successor
	shift  uint
}

// Build constructs a table over all tuples of rel. The directory is sized
// to the next power of two ≥ len(rel), giving a load factor ≤ 1.
func Build(rel *relation.Relation) *Table {
	t := &Table{}
	t.Rebuild(rel)
	return t
}

// Rebuild re-targets t at rel, reusing the directory and chain storage
// of earlier builds: a worker that joins partition after partition keeps
// one table and allocates only when a partition outgrows every earlier
// one. The directory is cleared (its empty-bucket zeros are meaningful);
// the chain array is not, since every entry 1..len(rel) is written before
// a probe can follow it. Tables handed out before are invalidated.
func (t *Table) Rebuild(rel *relation.Relation) {
	n := rel.Len()
	size := 1
	for size < n {
		size <<= 1
	}
	if size < 2 {
		size = 2
	}
	if cap(t.bucket) < size {
		t.bucket = make([]int32, size)
	} else {
		t.bucket = t.bucket[:size]
		clear(t.bucket)
	}
	if cap(t.next) < n+1 {
		t.next = make([]int32, n+1)
	} else {
		t.next = t.next[:n+1]
	}
	t.rel = rel
	t.shift = 64 - log2(uint64(size))
	for i := 0; i < n; i++ {
		b := t.slot(rel.Key(i))
		t.next[i+1] = t.bucket[b]
		t.bucket[b] = int32(i + 1)
	}
}

func (t *Table) slot(key uint64) uint64 {
	return (key * fibMix) >> t.shift
}

// Len returns the number of build-side tuples.
func (t *Table) Len() int { return t.rel.Len() }

// ProbeEach invokes fn with the build-side tuple index of every tuple
// whose key equals key.
func (t *Table) ProbeEach(key uint64, fn func(buildIdx int)) {
	for i := t.bucket[t.slot(key)]; i != 0; i = t.next[i] {
		if t.rel.Key(int(i-1)) == key {
			fn(int(i - 1))
		}
	}
}

// ProbeRelation probes the table with every tuple of outer and returns the
// number of matches and the verification checksum
// Σ (key + buildRID + probeRID) over all matches.
//
// This is the hot join kernel: it avoids closures and re-reads.
//
//rack:hotpath
func (t *Table) ProbeRelation(outer *relation.Relation) (matches, checksum uint64) {
	n := outer.Len()
	for i := 0; i < n; i++ {
		key := outer.Key(i)
		for j := t.bucket[t.slot(key)]; j != 0; j = t.next[j] {
			bi := int(j - 1)
			if t.rel.Key(bi) == key {
				matches++
				checksum += key + t.rel.RID(bi) + outer.RID(i)
			}
		}
	}
	return matches, checksum
}

// ProbeRange probes with outer tuples [lo, hi), the kernel behind the
// paper's skew handling (Section 4.3): a large outer partition is split
// into disjoint ranges probed by multiple threads against the same table,
// without synchronisation since accesses are read-only.
func (t *Table) ProbeRange(outer *relation.Relation, lo, hi int) (matches, checksum uint64) {
	return t.ProbeRelation(outer.Slice(lo, hi))
}

// Materialize probes the table with outer and appends one result record
// per match to out: <key, buildRID, probeRID>, 24 bytes little-endian.
// It returns the extended slice and the match count.
func (t *Table) Materialize(outer *relation.Relation, out []byte) ([]byte, uint64) {
	var matches uint64
	n := outer.Len()
	for i := 0; i < n; i++ {
		key := outer.Key(i)
		for j := t.bucket[t.slot(key)]; j != 0; j = t.next[j] {
			bi := int(j - 1)
			if t.rel.Key(bi) == key {
				matches++
				out = appendResult(out, key, t.rel.RID(bi), outer.RID(i))
			}
		}
	}
	return out, matches
}

// ResultWidth is the byte width of a materialised join result record.
const ResultWidth = 24

func appendResult(out []byte, key, buildRID, probeRID uint64) []byte {
	var rec [ResultWidth]byte
	binary.LittleEndian.PutUint64(rec[0:], key)
	binary.LittleEndian.PutUint64(rec[8:], buildRID)
	binary.LittleEndian.PutUint64(rec[16:], probeRID)
	return append(out, rec[:]...)
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}
