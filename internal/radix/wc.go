// Software write-combining scatter (the technique of Balkesen et al. [4]
// and Rödiger et al.: see PAPERS.md). The scalar Scatter touches one
// random destination cache line per tuple, costing a read-for-ownership
// of the full line to write width bytes of it. ScatterWC instead stages
// tuples in a per-partition cache-line buffer that stays cache-resident
// and flushes whole 64-byte lines, cutting the random-line traffic by a
// factor of CacheLine/width (4× for the paper's 16-byte tuples).
package radix

import (
	"encoding/binary"

	"rackjoin/internal/relation"
)

// WCBuffers is the reusable staging state of the write-combining scatter:
// one cache line per partition plus its fill level. Allocate once per
// worker (NewWCBuffers) and pass to every ScatterWC call; the buffers
// resize themselves when the pass shape changes.
type WCBuffers struct {
	np    int
	width int
	stage []byte  // np × CacheLine, cache-line aligned
	fill  []int32 // staged bytes per partition, < CacheLine between calls

	// Flushes counts full-line flushes, accumulated across calls; callers
	// snapshot it around a pass to report flush-rate metrics.
	Flushes uint64
}

// NewWCBuffers allocates staging for np partitions of width-byte tuples.
func NewWCBuffers(np, width int) *WCBuffers {
	wc := &WCBuffers{}
	wc.Reset(np, width)
	return wc
}

// Reset prepares the buffers for a pass over np partitions of width-byte
// tuples, reallocating only when the shape changed. Any staged bytes are
// discarded.
func (wc *WCBuffers) Reset(np, width int) {
	if np != wc.np || width != wc.width {
		wc.np, wc.width = np, width
		wc.stage = relation.AlignedBytes(np * relation.CacheLine)
		wc.fill = make([]int32, np)
		return
	}
	for p := range wc.fill {
		wc.fill[p] = 0
	}
}

// drainInto appends every partition's staged tail to its destination
// cursor position in ddata and advances the cursors, leaving the buffers
// empty. Tail flushes are partial lines and do not count as Flushes.
func (wc *WCBuffers) drainInto(ddata []byte, cursors []int64) {
	w := int64(wc.width)
	for p, f := range wc.fill {
		if f == 0 {
			continue
		}
		base := p * relation.CacheLine
		relation.CopyWords(ddata[cursors[p]*w:], wc.stage[base:base+int(f)])
		cursors[p] += int64(f) / w
		wc.fill[p] = 0
	}
}

// ScatterWC is the write-combining equivalent of Scatter: same contract
// (cursors are seeded with exclusive prefix-sum offsets and end at the
// partition ends), same destination bytes, different per-tuple cost. On
// amd64/arm64 it runs the width-specialised word-store kernels of
// wc_fast.go, which rely on the hardware store buffer to combine adjacent
// stores into full-line transactions and never touch wc; elsewhere (and
// under -tags purego) it runs the explicit software-staging loop, for
// which wc holds the reusable staging buffers — nil allocates fresh ones.
func ScatterWC(src, dst *relation.Relation, cursors []int64, shift, bits uint, wc *WCBuffers) {
	width := src.Width()
	sdata, ddata := src.Bytes(), dst.Bytes()
	if scatterWCFast(sdata, ddata, width, cursors, shift, bits) {
		return
	}
	if wc == nil {
		wc = NewWCBuffers(1<<bits, width)
	} else {
		wc.Reset(1<<bits, width)
	}
	scatterWCGeneric(sdata, ddata, width, cursors, shift, bits, wc)
	wc.drainInto(ddata, cursors)
}

// scatterWCGeneric is the portable write-combining loop; the
// width-specialised fast paths live in wc_fast.go.
//
//rack:hotpath
func scatterWCGeneric(sdata, ddata []byte, width int, cursors []int64, shift, bits uint, wc *WCBuffers) {
	mask := uint64(1<<bits - 1)
	for off := 0; off < len(sdata); off += width {
		k := binary.LittleEndian.Uint64(sdata[off:])
		p := int((k >> shift) & mask)
		base := p * relation.CacheLine
		f := int(wc.fill[p])
		copy(wc.stage[base+f:base+f+width], sdata[off:off+width])
		f += width
		if f == relation.CacheLine {
			relation.CopyWords(ddata[cursors[p]*int64(width):], wc.stage[base:base+relation.CacheLine])
			cursors[p] += int64(relation.CacheLine / width)
			wc.Flushes++
			f = 0
		}
		wc.fill[p] = int32(f)
	}
}

// HistogramIndexed is the fused single-read variant of Histogram: it
// computes the per-partition counts and records every tuple's partition
// index, so the subsequent ScatterIndexed/ScatterIndexedWC pass reuses
// the routing decision instead of re-reading and re-masking the key.
// idx is reused when its capacity suffices; the returned slice has one
// entry per tuple of rel.
func HistogramIndexed(rel *relation.Relation, shift, bits uint, idx []uint32) ([]int64, []uint32) {
	n := rel.Len()
	if cap(idx) < n {
		idx = make([]uint32, n)
	}
	idx = idx[:n]
	h := make([]int64, 1<<bits)
	mask := uint64(1<<bits - 1)
	width := rel.Width()
	data := rel.Bytes()
	i := 0
	for off := 0; off < len(data); off += width {
		p := uint32((binary.LittleEndian.Uint64(data[off:]) >> shift) & mask)
		idx[i] = p
		h[p]++
		i++
	}
	return h, idx
}

// ScatterIndexed scatters src into dst using the per-tuple partition
// indexes of a HistogramIndexed pass instead of re-deriving them from the
// keys. Contract is otherwise identical to Scatter.
//
//rack:hotpath
func ScatterIndexed(src, dst *relation.Relation, cursors []int64, idx []uint32) {
	width := src.Width()
	sdata, ddata := src.Bytes(), dst.Bytes()
	i := 0
	for off := 0; off < len(sdata); off += width {
		p := idx[i]
		relation.CopyTuple(ddata[cursors[p]*int64(width):], sdata[off:], width)
		cursors[p]++
		i++
	}
}

// ScatterIndexedWC combines the fused-index routing with write-combining
// staging: the single-read variant of ScatterWC.
func ScatterIndexedWC(src, dst *relation.Relation, cursors []int64, idx []uint32, wc *WCBuffers) {
	width := src.Width()
	if wc == nil {
		wc = NewWCBuffers(len(cursors), width)
	} else {
		wc.Reset(len(cursors), width)
	}
	sdata, ddata := src.Bytes(), dst.Bytes()
	i := 0
	for off := 0; off < len(sdata); off += width {
		p := int(idx[i])
		i++
		base := p * relation.CacheLine
		f := int(wc.fill[p])
		copy(wc.stage[base+f:base+f+width], sdata[off:off+width])
		f += width
		if f == relation.CacheLine {
			relation.CopyWords(ddata[cursors[p]*int64(width):], wc.stage[base:base+relation.CacheLine])
			cursors[p] += int64(relation.CacheLine / width)
			wc.Flushes++
			f = 0
		}
		wc.fill[p] = int32(f)
	}
	wc.drainInto(ddata, cursors)
}
