package radix

import (
	"fmt"
	"math/rand"
	"testing"

	"rackjoin/internal/relation"
)

// Kernel benchmarks: scalar Scatter vs ScatterWC vs the fused indexed
// variants, across tuple widths and fan-outs. `make bench-kernels` runs
// every BenchmarkKernel* and formats the output into BENCH_kernels.json;
// the acceptance bar is ScatterWC ≥ 1.5× Scatter at 2^10 partitions on
// the 16-byte layout.

// 2^22 tuples: 64 MB on the 16-byte layout, so the scattered destination
// exceeds the near caches and the benchmark measures memory traffic, not
// L2-resident stores.
const benchTuples = 1 << 22

func benchRel(width int) *relation.Relation {
	rng := rand.New(rand.NewSource(2015))
	r := relation.NewAligned(width, benchTuples)
	rng.Read(r.Bytes())
	for i := 0; i < benchTuples; i++ {
		r.SetKey(i, rng.Uint64())
	}
	return r
}

func benchShapes(b *testing.B, run func(b *testing.B, src *relation.Relation, bits uint)) {
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		src := benchRel(width)
		for _, bits := range []uint{6, 10, 12} {
			b.Run(fmt.Sprintf("w%d/bits%d", width, bits), func(b *testing.B) {
				b.SetBytes(int64(src.Size()))
				run(b, src, bits)
			})
		}
	}
}

func BenchmarkKernelScatterScalar(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			Scatter(src, dst, cursors, 0, bits)
		}
	})
}

func BenchmarkKernelScatterWC(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			ScatterWC(src, dst, cursors, 0, bits, wc)
		}
	})
}

// BenchmarkKernelScatterWCStaged forces the portable software-staging
// loop that scatterWCFast bypasses on amd64/arm64, so the ablation
// records what explicit per-partition cache-line staging costs on this
// memory hierarchy (see DESIGN.md § Kernel layer).
func BenchmarkKernelScatterWCStaged(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h := Histogram(src, 0, bits)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			wc.Reset(1<<bits, src.Width())
			scatterWCGeneric(src.Bytes(), dst.Bytes(), src.Width(), cursors, 0, bits, wc)
			wc.drainInto(dst.Bytes(), cursors)
		}
	})
}

func BenchmarkKernelHistogram(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			Histogram(src, 0, bits)
		}
	})
}

func BenchmarkKernelHistogramIndexed(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		var idx []uint32
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_, idx = HistogramIndexed(src, 0, bits, idx)
		}
	})
}

func BenchmarkKernelScatterIndexedWC(b *testing.B) {
	benchShapes(b, func(b *testing.B, src *relation.Relation, bits uint) {
		h, idx := HistogramIndexed(src, 0, bits, nil)
		cur0, _ := PrefixSum(h)
		dst := relation.NewAligned(src.Width(), src.Len())
		cursors := make([]int64, len(cur0))
		wc := NewWCBuffers(1<<bits, src.Width())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			copy(cursors, cur0)
			ScatterIndexedWC(src, dst, cursors, idx, wc)
		}
	})
}

// BenchmarkKernelPartition measures the end-to-end histogram+scatter pass
// as the exec engine drives it, per kernel setting.
func BenchmarkKernelPartition(b *testing.B) {
	for _, kern := range []Kernel{KernelScalar, KernelWC} {
		src := benchRel(relation.Width16)
		for _, bits := range []uint{10} {
			b.Run(fmt.Sprintf("%v/w16/bits%d", kern, bits), func(b *testing.B) {
				pt := NewPartitioner(kern)
				var dst relation.Buffer
				b.SetBytes(int64(src.Size()))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pt.Partition(&dst, src, 0, bits)
				}
			})
		}
	}
}

// BenchmarkKernelScatterRouted measures the network pass's routed scatter
// (Windows.Scatter) at its exec shape, per loop: every fourth partition
// is local (a window on its exact slab range), the rest fill 16 KB send
// buffers that are re-opened the moment they fill, as the pass does once
// it has shipped one. The scalar rows run the portable bounds-checked
// loop, the wc rows the 16-byte unsafe one; wider tuples have only the
// portable loop, so they get scalar rows only.
func BenchmarkKernelScatterRouted(b *testing.B) {
	const bufBytes = 16 << 10
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		src := benchRel(width)
		dst := relation.NewAligned(width, src.Len())
		kerns := []Kernel{KernelScalar}
		if width == relation.Width16 {
			kerns = append(kerns, KernelWC)
		}
		for _, kern := range kerns {
			for _, bits := range []uint{6, 10} {
				b.Run(fmt.Sprintf("%v/w%d/bits%d", kern, width, bits), func(b *testing.B) {
					h := Histogram(src, 0, bits)
					off, _ := PrefixSum(h)
					w, limit := int64(width), bufBytes/width
					bufs := make([][]byte, 1<<bits)
					for p := range bufs {
						if p%4 != 0 {
							bufs[p] = relation.AlignedBytes(bufBytes)
						}
					}
					ws := NewWindows(width, bits, kern)
					b.SetBytes(int64(src.Size()))
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						for p, buf := range bufs {
							if buf == nil {
								ws.Set(p, dst.Bytes()[off[p]*w:(off[p]+h[p])*w], int(h[p]))
							} else {
								ws.Set(p, buf, limit)
							}
						}
						for rest := src.Bytes(); len(rest) > 0; {
							n, p, full := ws.Scatter(rest)
							rest = rest[n:]
							switch {
							case p >= 0 && !full:
								b.Fatalf("closed window %d in an all-open table", p)
							case full && bufs[p] != nil:
								ws.Set(p, bufs[p], limit)
							}
						}
					}
				})
			}
		}
	}
}
