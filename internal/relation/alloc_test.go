package relation

import (
	"bytes"
	"math/rand"
	"testing"
)

func TestAlignedBytes(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 4096, 100003} {
		b := AlignedBytes(n)
		if len(b) != n {
			t.Fatalf("AlignedBytes(%d): len = %d", n, len(b))
		}
		if n > 0 && alignOffset(b) != 0 {
			t.Errorf("AlignedBytes(%d): misaligned by %d bytes", n, alignOffset(b))
		}
		// The capacity is clipped: appending must not scribble into the
		// alignment padding of a sibling allocation.
		if cap(b) != n {
			t.Errorf("AlignedBytes(%d): cap = %d, want %d", n, cap(b), n)
		}
	}
}

func TestNewAligned(t *testing.T) {
	for _, width := range []int{Width16, Width32, Width64} {
		r := NewAligned(width, 100)
		if r.Len() != 100 || r.Width() != width {
			t.Fatalf("NewAligned(%d, 100): len=%d width=%d", width, r.Len(), r.Width())
		}
		if !r.Aligned() {
			t.Errorf("NewAligned(%d, 100) slab not cache-line aligned", width)
		}
		r.SetKey(99, 42)
		if r.Key(99) != 42 {
			t.Errorf("NewAligned relation not writable")
		}
	}
	if r := NewAligned(Width16, 0); r.Len() != 0 || !r.Aligned() {
		t.Errorf("empty aligned relation: len=%d aligned=%v", r.Len(), r.Aligned())
	}
}

func TestNewAlignedPanics(t *testing.T) {
	for _, tc := range []struct {
		width, n int
	}{{15, 4}, {Width16, -1}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewAligned(%d, %d) did not panic", tc.width, tc.n)
				}
			}()
			NewAligned(tc.width, tc.n)
		}()
	}
}

func TestCopyTuple(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, width := range []int{Width16, Width32, Width64} {
		src := make([]byte, width+8)
		dst := make([]byte, width+8)
		want := make([]byte, width+8)
		for trial := 0; trial < 50; trial++ {
			rng.Read(src)
			rng.Read(dst)
			copy(want, dst)
			// Copy at an arbitrary (possibly unaligned) offset.
			off := trial % 8
			CopyTuple(dst[off:], src[off:], width)
			copy(want[off:off+width], src[off:off+width])
			if !bytes.Equal(dst, want) {
				t.Fatalf("CopyTuple width %d off %d: dst mismatch", width, off)
			}
		}
	}
}

func TestCopyWords(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for _, n := range []int{0, 8, 16, 64, 128, 1024} {
		src := make([]byte, n)
		rng.Read(src)
		dst := make([]byte, n+8)
		tail := dst[n:]
		guard := make([]byte, 8)
		copy(guard, tail)
		CopyWords(dst, src)
		if !bytes.Equal(dst[:n], src) {
			t.Fatalf("CopyWords(%d): payload mismatch", n)
		}
		if !bytes.Equal(tail, guard) {
			t.Fatalf("CopyWords(%d): wrote past len(src)", n)
		}
	}
}

// TestBufferGrowsOnlyPastHighWater: a Buffer hands out aligned relations
// of the requested size, keeps its storage (and its stale bytes) for
// smaller requests, and reallocates only when a request outgrows it.
func TestBufferGrowsOnlyPastHighWater(t *testing.T) {
	var b Buffer
	r := b.Relation(Width16, 100)
	if r.Len() != 100 || !r.Aligned() {
		t.Fatalf("len %d aligned %v", r.Len(), r.Aligned())
	}
	r.SetKey(0, 42)
	small := b.Relation(Width32, 10)
	if small.Len() != 10 || &small.Bytes()[0] != &r.Bytes()[0] {
		t.Fatal("a smaller request must reuse the storage")
	}
	if small.Key(0) != 42 {
		t.Fatal("reuse must not clear the storage")
	}
	if cap(small.Bytes()) != small.Size() {
		t.Fatal("views must be capped to their size")
	}
	big := b.Relation(Width64, 1000)
	if big.Len() != 1000 || !big.Aligned() || &big.Bytes()[0] == &r.Bytes()[0] {
		t.Fatal("a larger request must grow the storage")
	}
	if b.Relation(Width16, 0).Len() != 0 {
		t.Fatal("empty relation")
	}
}
