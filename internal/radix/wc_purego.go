//go:build purego || !(amd64 || arm64)

package radix

import "rackjoin/internal/relation"

// haveFastScatter gates KernelAuto: without a width-specialised fast
// path, auto stays scalar (the staged loop is a portability fallback, not
// a win).
const haveFastScatter = false

// scatterWCFast has no width-specialised implementation on this platform
// (or under -tags purego); ScatterWC runs the portable staged loop.
func scatterWCFast(sdata, ddata []byte, width int, cursors []int64, shift, bits uint) bool {
	return false
}

// scatterRouted16 is never selected without a fast path (Windows.fast
// requires haveFastScatter); it exists so Windows.Scatter compiles.
func scatterRouted16(src []byte, wins []window, mask uint64) (int, int, bool) {
	return scatterRoutedGeneric(src, wins, relation.Width16, mask)
}
