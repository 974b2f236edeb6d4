package radix

import (
	"fmt"

	"rackjoin/internal/relation"
)

// Kernel selects the partitioning (and probe) kernel implementations the
// exec engine runs its hot loops with. The ablation benches compare the
// settings; production callers leave it at KernelAuto.
type Kernel int

const (
	// KernelAuto picks per pass: write-combining when the fan-out is large
	// enough for WC staging to pay off (see Resolve), scalar otherwise.
	KernelAuto Kernel = iota
	// KernelScalar forces the per-tuple scalar kernels (Scatter,
	// one-key-at-a-time probe) everywhere.
	KernelScalar
	// KernelWC forces the software write-combining scatter and the batched
	// probe everywhere.
	KernelWC
)

// String implements fmt.Stringer.
func (k Kernel) String() string {
	switch k {
	case KernelAuto:
		return "auto"
	case KernelScalar:
		return "scalar"
	case KernelWC:
		return "wc"
	default:
		return fmt.Sprintf("Kernel(%d)", int(k))
	}
}

// ParseKernel parses the auto|scalar|wc knob (cmd flags, configs).
func ParseKernel(s string) (Kernel, error) {
	switch s {
	case "auto", "":
		return KernelAuto, nil
	case "scalar":
		return KernelScalar, nil
	case "wc":
		return KernelWC, nil
	}
	return 0, fmt.Errorf("radix: unknown kernel %q (want auto|scalar|wc)", s)
}

// Resolve maps KernelAuto to the concrete kernel for one partitioning
// pass over tuples of the given width fanning out to 2^bits partitions.
// Auto picks wc exactly where the platform has a width-specialised fast
// path (amd64/arm64, widths 16/32/64): that path wins at every measured
// fan-out (EXPERIMENTS.md § kernels), while the portable software-staging
// loop that KernelWC forces elsewhere costs more bookkeeping per tuple
// than its line batching saves on cache-generous machines — so auto never
// selects it on its own.
func (k Kernel) Resolve(width int, bits uint) Kernel {
	if k != KernelAuto {
		return k
	}
	if haveFastScatter && relation.ValidWidth(width) {
		return KernelWC
	}
	return KernelScalar
}

// batchMinTable is the build-side size above which KernelAuto uses the
// batched probe kernels: smaller tables are L1/L2-resident, their
// directory loads hit anyway, and batching's two-pass bookkeeping is pure
// overhead (measured ~9% at 2^10, +13..17% win at ≥2^16).
const batchMinTable = 1 << 14

// BatchProbe reports whether the build-probe phase over a hash table of n
// build tuples should use the batched probe kernels
// (hashtable.ProbeRangeBatch and friends).
func (k Kernel) BatchProbe(n int) bool {
	switch k {
	case KernelScalar:
		return false
	case KernelWC:
		return true
	}
	return n >= batchMinTable
}

// Partitioner runs histogram+scatter passes with the configured kernel,
// reusing the write-combining staging buffers across calls. It is not
// safe for concurrent use; create one per worker goroutine.
type Partitioner struct {
	kern Kernel
	wc   *WCBuffers

	// Telemetry accumulated across Partition calls, for the caller to fold
	// into its metrics registry after a phase: bytes scattered per kernel
	// and full-line WC flushes.
	BytesScalar uint64
	BytesWC     uint64
	Flushes     uint64
}

// NewPartitioner returns a partitioner using kernel k.
func NewPartitioner(k Kernel) *Partitioner { return &Partitioner{kern: k} }

// Kernel returns the configured (unresolved) kernel knob.
func (pt *Partitioner) Kernel() Kernel { return pt.kern }

// Partition radix-partitions rel by (shift, bits) into dst's reusable
// cache-line-aligned storage and returns the partitioned relation (a view
// of dst, valid until dst's next use) together with the per-partition
// bounds (len 2^bits+1). dst grows only when rel is larger than any
// relation it held before, and is not cleared: the histogram-exact
// scatter writes every tuple of the returned view.
func (pt *Partitioner) Partition(dst *relation.Buffer, rel *relation.Relation, shift, bits uint) (*relation.Relation, []int64) {
	h := Histogram(rel, shift, bits)
	cursors, _ := PrefixSum(h)
	out := dst.Relation(rel.Width(), rel.Len())
	switch pt.kern.Resolve(rel.Width(), bits) {
	case KernelWC:
		if pt.wc == nil {
			pt.wc = NewWCBuffers(1<<bits, rel.Width())
		}
		before := pt.wc.Flushes
		ScatterWC(rel, out, cursors, shift, bits, pt.wc)
		pt.Flushes += pt.wc.Flushes - before
		pt.BytesWC += uint64(rel.Size())
	default:
		Scatter(rel, out, cursors, shift, bits)
		pt.BytesScalar += uint64(rel.Size())
	}
	return out, Bounds(h)
}
