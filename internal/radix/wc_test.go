package radix

import (
	"bytes"
	"encoding/binary"
	"math/rand"
	"testing"

	"rackjoin/internal/relation"
)

// randRel builds a relation of n random-keyed tuples of the given width.
func randRel(rng *rand.Rand, width, n int) *relation.Relation {
	r := relation.New(width, n)
	rng.Read(r.Bytes()) // random payload bytes everywhere…
	for i := 0; i < n; i++ {
		r.SetKey(i, rng.Uint64()) // …and well-defined random keys
	}
	return r
}

// scatterBoth runs the scalar and WC scatters on the same input and
// fails the test on any divergence in destination bytes or final cursors.
func scatterBoth(t *testing.T, src *relation.Relation, shift, bits uint, wc *WCBuffers) {
	t.Helper()
	h := Histogram(src, shift, bits)
	curScalar, _ := PrefixSum(h)
	curWC := append([]int64(nil), curScalar...)

	dstScalar := relation.New(src.Width(), src.Len())
	dstWC := relation.NewAligned(src.Width(), src.Len())
	Scatter(src, dstScalar, curScalar, shift, bits)
	ScatterWC(src, dstWC, curWC, shift, bits, wc)

	if !bytes.Equal(dstScalar.Bytes(), dstWC.Bytes()) {
		t.Fatalf("width=%d n=%d shift=%d bits=%d: ScatterWC bytes diverge from Scatter",
			src.Width(), src.Len(), shift, bits)
	}
	for p := range curScalar {
		if curScalar[p] != curWC[p] {
			t.Fatalf("width=%d n=%d shift=%d bits=%d: cursor[%d] = %d (wc) vs %d (scalar)",
				src.Width(), src.Len(), shift, bits, p, curWC[p], curScalar[p])
		}
	}
}

// TestScatterWCEquivalence is the property test of the kernel layer:
// ScatterWC ≡ Scatter across tuple widths, random (shift, bits) windows,
// empty inputs, and partition sizes that are not cache-line multiples.
func TestScatterWCEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	wc := &WCBuffers{} // one reused staging buffer across all shapes
	wc.Reset(1, relation.Width16)
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		for _, n := range []int{0, 1, 2, 3, 5, 63, 64, 100, 1000, 5000} {
			src := randRel(rng, width, n)
			for trial := 0; trial < 6; trial++ {
				bits := uint(rng.Intn(11)) // 0..10 → 1..1024 partitions
				shift := uint(rng.Intn(54))
				scatterBoth(t, src, shift, bits, wc)
			}
		}
	}
}

// TestScatterWCSkewed drives all tuples into one partition so the staged
// line flushes continuously, and into a partition layout where every
// partition holds a non-multiple-of-line tuple count (tail-drain path).
func TestScatterWCSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		// All keys equal: single hot partition.
		src := relation.New(width, 1001)
		for i := 0; i < 1001; i++ {
			src.SetKey(i, 0xDEADBEEF)
			src.SetRID(i, uint64(i))
		}
		scatterBoth(t, src, 0, 8, nil)

		// Keys 0..np-1 cyclically with a prime count: every partition ends
		// on a partial line.
		src2 := randRel(rng, width, 997)
		for i := 0; i < src2.Len(); i++ {
			src2.SetKey(i, uint64(i%61))
		}
		scatterBoth(t, src2, 0, 6, nil)
	}
}

func TestScatterWCNilBuffers(t *testing.T) {
	src := randRel(rand.New(rand.NewSource(3)), relation.Width16, 500)
	scatterBoth(t, src, 2, 5, nil)
}

// TestScatterIndexedEquivalence checks the fused single-read variants:
// HistogramIndexed must agree with Histogram, and ScatterIndexed /
// ScatterIndexedWC must reproduce Scatter exactly.
func TestScatterIndexedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	var idx []uint32
	wc := NewWCBuffers(1, relation.Width16)
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		for _, n := range []int{0, 1, 100, 2047} {
			src := randRel(rng, width, n)
			for trial := 0; trial < 4; trial++ {
				bits := uint(rng.Intn(10))
				shift := uint(rng.Intn(54))

				h := Histogram(src, shift, bits)
				var hIdx []int64
				hIdx, idx = HistogramIndexed(src, shift, bits, idx)
				for p := range h {
					if h[p] != hIdx[p] {
						t.Fatalf("HistogramIndexed[%d] = %d, want %d", p, hIdx[p], h[p])
					}
				}

				cur0, _ := PrefixSum(h)
				want := relation.New(width, n)
				curW := append([]int64(nil), cur0...)
				Scatter(src, want, curW, shift, bits)

				got := relation.New(width, n)
				cur := append([]int64(nil), cur0...)
				ScatterIndexed(src, got, cur, idx)
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("ScatterIndexed diverges (width=%d n=%d bits=%d)", width, n, bits)
				}

				gotWC := relation.NewAligned(width, n)
				cur = append([]int64(nil), cur0...)
				ScatterIndexedWC(src, gotWC, cur, idx, wc)
				if !bytes.Equal(gotWC.Bytes(), want.Bytes()) {
					t.Fatalf("ScatterIndexedWC diverges (width=%d n=%d bits=%d)", width, n, bits)
				}
			}
		}
	}
}

func TestWCBuffersStageLineClear(t *testing.T) {
	wc := NewWCBuffers(4, relation.Width16)
	tuple := make([]byte, relation.Width16)
	for i := 0; i < 3; i++ {
		binary.LittleEndian.PutUint64(tuple, uint64(i))
		if wc.Stage(2, tuple) {
			t.Fatalf("line full after %d of 4 tuples", i+1)
		}
	}
	if got := len(wc.Line(2)); got != 48 {
		t.Fatalf("Line(2) = %d bytes, want 48", got)
	}
	if !wc.Stage(2, tuple) {
		t.Fatal("line not full after 4 tuples")
	}
	if wc.Flushes != 0 {
		t.Fatalf("Flushes = %d before Clear", wc.Flushes)
	}
	wc.Clear(2)
	if wc.Flushes != 1 {
		t.Fatalf("full-line Clear not counted: Flushes = %d", wc.Flushes)
	}
	if len(wc.Line(2)) != 0 {
		t.Fatal("line not empty after Clear")
	}
	// Partial clears are tail drains, not flushes.
	wc.Stage(1, tuple)
	wc.Clear(1)
	if wc.Flushes != 1 {
		t.Fatalf("partial Clear counted as flush: Flushes = %d", wc.Flushes)
	}
}

func TestKernelParseResolve(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Kernel
	}{{"auto", KernelAuto}, {"", KernelAuto}, {"scalar", KernelScalar}, {"wc", KernelWC}} {
		got, err := ParseKernel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseKernel(%q) = %v, %v", tc.in, got, err)
		}
		if got.String() == "" {
			t.Errorf("Kernel %v has empty String", got)
		}
	}
	if _, err := ParseKernel("simd"); err == nil {
		t.Error("ParseKernel accepted unknown kernel")
	}
	// Auto follows the platform: wc where the fast path exists, scalar
	// elsewhere (and always scalar for widths without a specialised loop).
	wantAuto := KernelScalar
	if haveFastScatter {
		wantAuto = KernelWC
	}
	if got := KernelAuto.Resolve(16, 10); got != wantAuto {
		t.Errorf("auto resolved to %v, want %v (haveFastScatter=%v)", got, wantAuto, haveFastScatter)
	}
	if KernelAuto.Resolve(24, 10) != KernelScalar {
		t.Error("auto should stay scalar for unspecialised widths")
	}
	// Forced settings resolve to themselves.
	if KernelScalar.Resolve(16, 10) != KernelScalar || KernelWC.Resolve(64, 2) != KernelWC {
		t.Error("forced kernels must not be overridden by Resolve")
	}
	// BatchProbe: scalar always opts out, wc always opts in, auto sizes it.
	if KernelScalar.BatchProbe(1<<20) || !KernelWC.BatchProbe(16) {
		t.Error("forced kernels must pin the probe flavour")
	}
	if KernelAuto.BatchProbe(1<<10) || !KernelAuto.BatchProbe(1<<16) {
		t.Error("auto should batch only past cache-resident table sizes")
	}
}

// TestPartitionerReusedDestination partitions into one destination
// buffer over and over — shrinking, then growing past the high-water
// mark — and checks every pass against a fresh single-pass scatter: the
// buffer is never cleared, so a kernel that skipped a byte would leak the
// previous pass's tuples into the result.
func TestPartitionerReusedDestination(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for _, kern := range []Kernel{KernelScalar, KernelWC} {
		pt := NewPartitioner(kern)
		var buf relation.Buffer
		for _, n := range []int{4096, 1000, 4096, 7000, 3} {
			src := randRel(rng, relation.Width16, n)
			got, bounds := pt.Partition(&buf, src, 0, 6)
			if !got.Aligned() {
				t.Fatalf("%v n=%d: reused destination not cache-line aligned", kern, n)
			}
			want := relation.New(relation.Width16, n)
			cursors, _ := PrefixSum(Histogram(src, 0, 6))
			Scatter(src, want, cursors, 0, 6)
			if len(bounds) != 65 || !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatalf("%v n=%d: reused-destination partition differs from a fresh scatter", kern, n)
			}
		}
	}
}

func TestPartitioner(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	src := randRel(rng, relation.Width16, 4096)
	for _, kern := range []Kernel{KernelAuto, KernelScalar, KernelWC} {
		pt := NewPartitioner(kern)
		var buf relation.Buffer
		dst, bounds := pt.Partition(&buf, src, 0, 8)
		if dst.Len() != src.Len() || len(bounds) != 257 {
			t.Fatalf("%v: dst len %d bounds %d", kern, dst.Len(), len(bounds))
		}
		// Every tuple must land inside its partition's bounds.
		for p := 0; p < 256; p++ {
			part := PartitionView(dst, bounds, p)
			for i := 0; i < part.Len(); i++ {
				if PartitionOf(part.Key(i), 0, 8) != p {
					t.Fatalf("%v: tuple in partition %d has key of partition %d",
						kern, p, PartitionOf(part.Key(i), 0, 8))
				}
			}
		}
		// A second pass reuses scratch and keeps accumulating telemetry.
		pt.Partition(&buf, src, 8, 8)
		// Flushes is only non-zero on the software-staged (purego) path, so
		// the assertions here stick to the byte counters.
		switch kern.Resolve(relation.Width16, 8) {
		case KernelWC:
			if pt.BytesWC != 2*uint64(src.Size()) {
				t.Errorf("%v: BytesWC=%d", kern, pt.BytesWC)
			}
		default:
			if pt.BytesScalar != 2*uint64(src.Size()) || pt.Flushes != 0 {
				t.Errorf("%v: BytesScalar=%d Flushes=%d", kern, pt.BytesScalar, pt.Flushes)
			}
		}
	}
}

// FuzzScatterWC fuzzes the equivalence property over arbitrary tuple
// bytes and pass windows.
func FuzzScatterWC(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), uint8(4))
	f.Add(bytes.Repeat([]byte{0xFF}, 96), uint8(13), uint8(9))
	f.Add([]byte{}, uint8(3), uint8(1))
	f.Fuzz(func(t *testing.T, data []byte, shift, bits uint8) {
		sh := uint(shift % 57)
		b := uint(bits % 12)
		n := len(data) / relation.Width16
		src := relation.New(relation.Width16, n)
		copy(src.Bytes(), data)

		h := Histogram(src, sh, b)
		curScalar, _ := PrefixSum(h)
		curWC := append([]int64(nil), curScalar...)
		want := relation.New(relation.Width16, n)
		got := relation.New(relation.Width16, n)
		Scatter(src, want, curScalar, sh, b)
		ScatterWC(src, got, curWC, sh, b, nil)
		if !bytes.Equal(want.Bytes(), got.Bytes()) {
			t.Fatalf("ScatterWC diverges from Scatter (n=%d shift=%d bits=%d)", n, sh, b)
		}
	})
}
