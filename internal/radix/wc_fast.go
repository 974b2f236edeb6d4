//go:build !purego && (amd64 || arm64)

package radix

import (
	"unsafe"

	"rackjoin/internal/relation"
)

// Width-specialised scatter kernels. These move tuples as 8-byte words
// through raw pointers: no per-tuple bounds checks, no memmove calls, and
// the key load doubles as the first stored word.
//
// Deliberately NO software staging here: consecutive word stores into the
// same destination line coalesce in the store buffer, so the hardware
// already write-combines them, and measurements on our target machines
// (EXPERIMENTS.md § kernels) show the explicit per-partition staging of
// scatterWCGeneric costs ~2 extra stores plus a fill-table access per
// tuple without reducing memory traffic — the active destination lines
// (2^bits × 64 B at exec fan-outs) stay cache-resident. The staged loop
// remains the portable fallback; callers that fill externally-owned
// buffers (the network pass's RDMA send buffers) use the routed loop at
// the end of this file, which applies the same word stores per window.
//
// Only compiled on little-endian platforms that allow unaligned word
// access; -tags purego (or any other platform) runs scatterWCGeneric.

// haveFastScatter gates KernelAuto: this platform has the direct
// word-store kernels below.
const haveFastScatter = true

// scatterWCFast dispatches to the width-specialised loop and reports
// whether one existed. Cursor semantics are identical to Scatter and
// scatterWCGeneric+drain; wc is not touched (no staged state, Flushes
// counts software-staged flushes only).
func scatterWCFast(sdata, ddata []byte, width int, cursors []int64, shift, bits uint) bool {
	if len(sdata) == 0 {
		return true
	}
	switch width {
	case relation.Width16:
		scatterWC16(sdata, ddata, cursors, shift, bits)
	case relation.Width32:
		scatterWC32(sdata, ddata, cursors, shift, bits)
	case relation.Width64:
		scatterWC64(sdata, ddata, cursors, shift, bits)
	default:
		return false
	}
	return true
}

func scatterWC16(sdata, ddata []byte, cursors []int64, shift, bits uint) {
	mask := uint64(1<<bits - 1)
	sp := unsafe.Pointer(unsafe.SliceData(sdata))
	dp := unsafe.Pointer(unsafe.SliceData(ddata))
	cp := unsafe.Pointer(unsafe.SliceData(cursors))
	n := len(sdata)
	for off := 0; off < n; off += 16 {
		k := *(*uint64)(unsafe.Add(sp, off))
		p := int((k >> shift) & mask)
		c := (*int64)(unsafe.Add(cp, p*8))
		d := (*[2]uint64)(unsafe.Add(dp, *c*16))
		d[0] = k
		d[1] = *(*uint64)(unsafe.Add(sp, off+8))
		*c++
	}
}

func scatterWC32(sdata, ddata []byte, cursors []int64, shift, bits uint) {
	mask := uint64(1<<bits - 1)
	sp := unsafe.Pointer(unsafe.SliceData(sdata))
	dp := unsafe.Pointer(unsafe.SliceData(ddata))
	cp := unsafe.Pointer(unsafe.SliceData(cursors))
	n := len(sdata)
	for off := 0; off < n; off += 32 {
		s := (*[4]uint64)(unsafe.Add(sp, off))
		p := int((s[0] >> shift) & mask)
		c := (*int64)(unsafe.Add(cp, p*8))
		d := (*[4]uint64)(unsafe.Add(dp, *c*32))
		d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		*c++
	}
}

func scatterWC64(sdata, ddata []byte, cursors []int64, shift, bits uint) {
	mask := uint64(1<<bits - 1)
	sp := unsafe.Pointer(unsafe.SliceData(sdata))
	dp := unsafe.Pointer(unsafe.SliceData(ddata))
	cp := unsafe.Pointer(unsafe.SliceData(cursors))
	n := len(sdata)
	for off := 0; off < n; off += 64 {
		s := (*[8]uint64)(unsafe.Add(sp, off))
		p := int((s[0] >> shift) & mask)
		c := (*int64)(unsafe.Add(cp, p*8))
		d := (*[8]uint64)(unsafe.Add(dp, *c*64))
		d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
		d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
		*c++
	}
}

// winAt returns &wins[p] without a bounds check.
func winAt(wp unsafe.Pointer, p int) *window {
	return (*window)(unsafe.Add(wp, uintptr(p)*unsafe.Sizeof(window{})))
}

// scatterRouted16 is Windows.Scatter's loop for 16-byte tuples; the
// contract is scatterRoutedGeneric's. It reads the window of the tuple's
// partition through a raw pointer (mask < len(wins)) and writes only
// while fill < limit, which Windows.Set bounds by len(dst). Wider tuples
// run the portable loop: word-store 32/64-byte variants measured no
// faster than it (EXPERIMENTS.md § kernels).
//
//rack:hotpath
func scatterRouted16(src []byte, wins []window, mask uint64) (int, int, bool) {
	sp := unsafe.Pointer(unsafe.SliceData(src))
	wp := unsafe.Pointer(unsafe.SliceData(wins))
	n := len(src)
	for off := 0; off < n; off += 16 {
		k := *(*uint64)(unsafe.Add(sp, off))
		p := int(k & mask)
		w := winAt(wp, p)
		f := w.fill
		if f >= w.limit {
			return off, p, false
		}
		d := (*[2]uint64)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(w.dst)), f*16))
		d[0] = k
		d[1] = *(*uint64)(unsafe.Add(sp, off+8))
		f++
		w.fill = f
		if f == w.limit {
			return off + 16, p, true
		}
	}
	return n, -1, false
}
