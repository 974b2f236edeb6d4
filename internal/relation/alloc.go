package relation

import "fmt"

// CacheLine is the cache-line granularity the kernel layer stages and
// flushes at (see internal/radix's software write-combining scatter). All
// supported tuple widths divide it evenly.
const CacheLine = 64

// AlignedBytes returns a zeroed slice of n bytes whose first element is
// CacheLine-aligned. The write-combining kernels flush whole cache lines;
// aligning their destinations keeps every flush within a single line.
func AlignedBytes(n int) []byte {
	if n == 0 {
		return nil
	}
	b := make([]byte, n+CacheLine-1)
	off := alignOffset(b)
	return b[off : off+n : off+n]
}

// NewAligned allocates a relation of n tuples whose slab starts on a cache
// line. Partition kernels scatter into such relations so that full-line
// write-combining flushes never straddle two destination lines.
func NewAligned(width, n int) *Relation {
	if !ValidWidth(width) {
		panic(fmt.Sprintf("relation: invalid tuple width %d", width))
	}
	if n < 0 {
		panic("relation: negative tuple count")
	}
	return &Relation{width: width, data: AlignedBytes(n * width)}
}

// Aligned reports whether the relation's slab starts on a cache line.
// Empty relations are trivially aligned.
func (r *Relation) Aligned() bool {
	return len(r.data) == 0 || alignOffset(r.data) == 0
}

// Buffer is reusable cache-line-aligned tuple storage: scratch that a
// worker partitions into over and over without allocating (or zeroing)
// per use. The zero value is an empty buffer.
type Buffer struct {
	data []byte
}

// Relation returns a relation of n tuples over the buffer, growing the
// storage only when it is smaller than n×width bytes. The bytes keep
// whatever the previous use left there: the caller must write every
// tuple before reading it (a histogram-exact scatter does). The returned
// relation is valid until the next call.
func (b *Buffer) Relation(width, n int) *Relation {
	if !ValidWidth(width) {
		panic(fmt.Sprintf("relation: invalid tuple width %d", width))
	}
	if n < 0 {
		panic("relation: negative tuple count")
	}
	size := n * width
	if size > len(b.data) {
		b.data = AlignedBytes(size)
	}
	return &Relation{width: width, data: b.data[:size:size]}
}
