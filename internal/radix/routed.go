package radix

import (
	"encoding/binary"
	"fmt"

	"rackjoin/internal/relation"
)

// Routed scatter: the partitioning kernel of the network partitioning
// pass (paper §4.2, §5 psPart), where a partition's output is not a
// pre-sized slice of one destination relation but a *window* the caller
// re-aims as the pass runs — an exact slab range for a locally owned
// partition, the current RDMA send buffer for a remote one. The kernel
// runs at partitioning speed until a window needs the caller: it became
// full (the caller ships the buffer at once, keeping the §4.2.1
// interleaving of partitioning and transfers), or a tuple hit a closed
// window (the caller's slow path acquires a buffer, or routes the tuple
// itself).

// Windows is the per-partition route table of the routed scatter: for every
// partition a destination byte range, a fill cursor and a limit, both
// counted in tuples. A window with limit 0 is closed. Allocate one per
// worker and re-aim its windows with Set and Close; it is not safe for
// concurrent use.
type Windows struct {
	width int
	mask  uint64
	fast  bool // 16-byte unsafe loop (wc_fast.go)
	wins  []window
}

// window is one partition's destination. Set guarantees
// len(dst) ≥ limit × width, so the unsafe loop writes in bounds without
// per-tuple checks: they only write while fill < limit.
type window struct {
	dst   []byte
	fill  int
	limit int
}

// NewWindows returns a route table of 2^bits closed windows for
// width-byte tuples, routing by the low bits of the key (Scatter with
// shift 0, the network pass's split).
// Kernel k picks the loop: the 16-byte word-store loop where width is 16,
// k resolves to KernelWC and the platform has it, the portable
// bounds-checked loop otherwise (always for 32/64-byte tuples, under
// KernelScalar and under -tags purego).
func NewWindows(width int, bits uint, k Kernel) *Windows {
	return &Windows{
		width: width,
		mask:  1<<bits - 1,
		fast:  haveFastScatter && width == relation.Width16 && k.Resolve(width, bits) == KernelWC,
		wins:  make([]window, 1<<bits),
	}
}

// Set opens partition p's window on dst with room for limit tuples and
// an empty fill. It panics if dst is shorter than limit tuples: the
// unsafe loops rely on that bound instead of checking every store.
func (ws *Windows) Set(p int, dst []byte, limit int) {
	if limit < 0 || len(dst) < limit*ws.width {
		panic(fmt.Sprintf("radix: window %d: %d bytes cannot hold %d tuples of %d bytes",
			p, len(dst), limit, ws.width))
	}
	ws.wins[p] = window{dst: dst, limit: limit}
}

// Close closes partition p's window: the next tuple routed to p stops
// Scatter before it is written.
func (ws *Windows) Close(p int) { ws.wins[p] = window{} }

// Fill returns the number of tuples written into partition p's window
// since it was last Set.
func (ws *Windows) Fill(p int) int { return ws.wins[p].fill }

// Scatter routes the tuples of src (a whole number of tuples) into their
// partitions' windows, in order, and returns how many bytes of src it
// consumed. It stops early in two cases and then returns the partition p
// that stopped it (p is -1 when src was consumed entirely):
//
//   - full: the last consumed tuple filled p's window. The caller flushes
//     or re-aims the window before calling again.
//   - !full: the next tuple, src[n:n+width], belongs to p, whose window
//     is closed or already full. Nothing of it was written.
//
//rack:hotpath
func (ws *Windows) Scatter(src []byte) (n, p int, full bool) {
	if len(src)%ws.width != 0 {
		ws.panicPartial(len(src))
	}
	if ws.fast {
		return scatterRouted16(src, ws.wins, ws.mask)
	}
	return scatterRoutedGeneric(src, ws.wins, ws.width, ws.mask)
}

// panicPartial rejects an input that ends mid-tuple: the unsafe loops
// would read past it. Kept out of line so the hot path does not box its
// message arguments.
//
//go:noinline
func (ws *Windows) panicPartial(n int) {
	panic(fmt.Sprintf("radix: routed scatter input of %d bytes is not a whole number of %d-byte tuples", n, ws.width))
}

// scatterRoutedGeneric is the portable, bounds-checked routed loop; the
// 16-byte fast path lives in wc_fast.go.
//
//rack:hotpath
func scatterRoutedGeneric(src []byte, wins []window, width int, mask uint64) (int, int, bool) {
	for off := 0; off < len(src); off += width {
		p := int(binary.LittleEndian.Uint64(src[off:]) & mask)
		w := &wins[p]
		if w.fill >= w.limit {
			return off, p, false
		}
		at := w.fill * width
		copy(w.dst[at:at+width], src[off:off+width])
		w.fill++
		if w.fill == w.limit {
			return off + width, p, true
		}
	}
	return len(src), -1, false
}
