package radix

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"rackjoin/internal/relation"
)

// routeStop is one early return of Windows.Scatter.
type routeStop struct {
	n, p int
	full bool
}

// driveRouted runs ws over src the way the network pass's route table
// does: a full window is shipped (appended to its partition's output)
// and closed at once; a tuple that hits a closed window makes the caller
// open a fresh window of newLimit(p) tuples (≥ 1), and the kernel is
// called again without consuming the tuple. initial[p] sets which
// windows start open. It returns every partition's shipped bytes in
// order plus the sequence of early returns.
func driveRouted(tb testing.TB, ws *Windows, src []byte, width int, initial []bool, newLimit func(p int) int) ([][]byte, []routeStop) {
	tb.Helper()
	np := len(initial)
	out := make([][]byte, np)
	bufs := make([][]byte, np)
	limits := make([]int, np)
	open := func(p int) {
		limits[p] = newLimit(p)
		bufs[p] = make([]byte, limits[p]*width)
		ws.Set(p, bufs[p], limits[p])
	}
	for p, o := range initial {
		if o {
			open(p)
		} else {
			ws.Close(p)
		}
	}
	var stops []routeStop
	for len(src) > 0 {
		n, p, full := ws.Scatter(src)
		src = src[n:]
		if p < 0 {
			if len(src) != 0 {
				tb.Fatalf("kernel reported done with %d bytes left", len(src))
			}
			break
		}
		stops = append(stops, routeStop{n, p, full})
		switch {
		case full:
			if bufs[p] == nil || ws.Fill(p) != limits[p] {
				tb.Fatalf("partition %d reported full at fill %d of %d", p, ws.Fill(p), limits[p])
			}
			out[p] = append(out[p], bufs[p]...)
			bufs[p] = nil
			ws.Close(p)
		case bufs[p] != nil:
			tb.Fatalf("kernel stopped at open window %d (fill %d of %d)", p, ws.Fill(p), limits[p])
		default:
			if got := int(binary.LittleEndian.Uint64(src) & ws.mask); got != p {
				tb.Fatalf("closed-window stop at %d, but the next tuple belongs to %d", p, got)
			}
			open(p)
		}
	}
	for p, b := range bufs {
		if b != nil {
			out[p] = append(out[p], b[:ws.Fill(p)*width]...)
		}
	}
	return out, stops
}

// wantPartitions is Scatter's output split partition by partition.
func wantPartitions(src *relation.Relation, bits uint) [][]byte {
	h := Histogram(src, 0, bits)
	cursors, _ := PrefixSum(h)
	dst := relation.New(src.Width(), src.Len())
	Scatter(src, dst, cursors, 0, bits)
	bounds := Bounds(h)
	w := int64(src.Width())
	out := make([][]byte, 1<<bits)
	for p := range out {
		out[p] = dst.Bytes()[bounds[p]*w : bounds[p+1]*w]
	}
	return out
}

// checkRouted runs src through Windows built with KernelScalar and
// KernelWC (the portable and, for 16-byte tuples, the unsafe loop) with
// the same random window limits and initial closed partitions, and
// checks each against Scatter and the two against each other (bytes and
// early returns).
func checkRouted(tb testing.TB, src *relation.Relation, bits uint, seed int64, maxLimit int) {
	tb.Helper()
	width := src.Width()
	want := wantPartitions(src, bits)
	var refStops []routeStop
	for i, k := range []Kernel{KernelScalar, KernelWC} {
		rng := rand.New(rand.NewSource(seed))
		initial := make([]bool, 1<<bits)
		for p := range initial {
			initial[p] = rng.Intn(3) != 0
		}
		limit := func(int) int { return 1 + rng.Intn(maxLimit) }
		ws := NewWindows(width, bits, k)
		got, stops := driveRouted(tb, ws, src.Bytes(), width, initial, limit)
		for p := range want {
			if !bytes.Equal(got[p], want[p]) {
				tb.Fatalf("%v width=%d n=%d bits=%d: partition %d: routed %d bytes differ from Scatter's %d",
					k, width, src.Len(), bits, p, len(got[p]), len(want[p]))
			}
		}
		if i == 0 {
			refStops = stops
		} else if fmt.Sprint(stops) != fmt.Sprint(refStops) {
			tb.Fatalf("width=%d bits=%d: scalar and wc kernels stop differently", width, bits)
		}
	}
}

// TestScatterRoutedEquivalence is the routed kernel's property test:
// across widths, fan-outs 2^1..2^10, window limits down to one tuple and
// randomly closed partitions, re-opening windows the way the network
// pass does reproduces Scatter partition by partition, on both kernels.
func TestScatterRoutedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		for bits := uint(1); bits <= 10; bits++ {
			for _, n := range []int{0, 1, 7, 500, 4000} {
				src := randRel(rng, width, n)
				for _, maxLimit := range []int{1, 3, 64} {
					checkRouted(t, src, bits, rng.Int63(), maxLimit)
				}
			}
		}
	}
}

// keyedRel builds width-byte tuples whose keys are keys, with a distinct
// payload per tuple.
func keyedRel(width int, keys ...uint64) *relation.Relation {
	r := relation.New(width, len(keys))
	for i, k := range keys {
		r.SetKey(i, k)
		r.SetRID(i, uint64(1000+i))
	}
	return r
}

// TestScatterRoutedClosedWindowStops checks that a tuple routed to a
// closed window, or to one already full, stops the kernel before it
// writes anything: tuples before it land, the tuple and everything after
// it stay unwritten.
func TestScatterRoutedClosedWindowStops(t *testing.T) {
	for _, k := range []Kernel{KernelScalar, KernelWC} {
		for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
			// Partitions by low two bits: 0, 1, 2 (closed), 1, 0.
			src := keyedRel(width, 4, 1, 2, 5, 8)
			ws := NewWindows(width, 2, k)
			bufs := make([][]byte, 4)
			for p := range bufs {
				bufs[p] = bytes.Repeat([]byte{0xEE}, 4*width)
				if p != 2 {
					ws.Set(p, bufs[p], 4)
				}
			}
			n, p, full := ws.Scatter(src.Bytes())
			if n != 2*width || p != 2 || full {
				t.Fatalf("%v w%d: Scatter = (%d, %d, %v), want (%d, 2, false)", k, width, n, p, full, 2*width)
			}
			if ws.Fill(0) != 1 || ws.Fill(1) != 1 || ws.Fill(2) != 0 {
				t.Fatalf("%v w%d: fills %d/%d/%d after stop, want 1/1/0", k, width, ws.Fill(0), ws.Fill(1), ws.Fill(2))
			}
			if !bytes.Equal(bufs[0][:width], src.Tuple(0)) || !bytes.Equal(bufs[1][:width], src.Tuple(1)) {
				t.Fatalf("%v w%d: tuples before the stop not written", k, width)
			}
			for _, p := range []int{0, 1} {
				if !bytes.Equal(bufs[p][width:], bytes.Repeat([]byte{0xEE}, 3*width)) {
					t.Fatalf("%v w%d: window %d written past the stop", k, width, p)
				}
			}
			if !bytes.Equal(bufs[2], bytes.Repeat([]byte{0xEE}, 4*width)) {
				t.Fatalf("%v w%d: closed window written", k, width)
			}

			// A full window stops the same way: limit 1 on a range with
			// room for two, then a second tuple for it.
			src = keyedRel(width, 3, 7)
			buf := bytes.Repeat([]byte{0xEE}, 2*width)
			ws.Set(3, buf, 1)
			n, p, full = ws.Scatter(src.Bytes())
			if n != width || p != 3 || !full {
				t.Fatalf("%v w%d: first tuple: (%d, %d, %v), want (%d, 3, true)", k, width, n, p, full, width)
			}
			n, p, full = ws.Scatter(src.Bytes()[width:])
			if n != 0 || p != 3 || full {
				t.Fatalf("%v w%d: full-window hit: (%d, %d, %v), want (0, 3, false)", k, width, n, p, full)
			}
			if !bytes.Equal(buf[width:], bytes.Repeat([]byte{0xEE}, width)) {
				t.Fatalf("%v w%d: full window written past its limit", k, width)
			}
		}
	}
}

// TestWindowsLoopSelection pins which loop NewWindows picks: the unsafe
// 16-byte loop only for 16-byte tuples under KernelWC (or an auto that
// resolves to it) on a platform that has it, the portable loop for
// every other width and under KernelScalar.
func TestWindowsLoopSelection(t *testing.T) {
	for _, width := range []int{relation.Width16, relation.Width32, relation.Width64} {
		for _, k := range []Kernel{KernelScalar, KernelWC, KernelAuto} {
			want := haveFastScatter && width == relation.Width16 && k != KernelScalar
			if got := NewWindows(width, 6, k).fast; got != want {
				t.Errorf("NewWindows(w%d, %v).fast = %v, want %v", width, k, got, want)
			}
		}
	}
}

// TestWindowsSetBounds checks the bound the unsafe loop relies on: a
// window cannot be opened on fewer bytes than its limit needs.
func TestWindowsSetBounds(t *testing.T) {
	ws := NewWindows(relation.Width16, 3, KernelWC)
	ws.Set(1, make([]byte, 32), 2) // exactly enough
	defer func() {
		r := recover()
		if r == nil || !strings.Contains(fmt.Sprint(r), "cannot hold") {
			t.Fatalf("Set with a short buffer: recover() = %v, want a bounds panic", r)
		}
	}()
	ws.Set(2, make([]byte, 31), 2)
}

// FuzzScatterRouted fuzzes the routed property over arbitrary tuple
// bytes, widths, fan-outs, window limits and closed partitions.
func FuzzScatterRouted(f *testing.F) {
	f.Add([]byte("0123456789abcdef0123456789abcdef"), uint8(0), uint8(4), int64(1), uint8(1))
	f.Add(bytes.Repeat([]byte{0xFF}, 192), uint8(1), uint8(9), int64(7), uint8(0))
	f.Add(bytes.Repeat([]byte{0x01, 0x80}, 128), uint8(2), uint8(1), int64(3), uint8(5))
	f.Fuzz(func(t *testing.T, data []byte, wsel, bits uint8, seed int64, maxLimit uint8) {
		width := []int{relation.Width16, relation.Width32, relation.Width64}[wsel%3]
		b := 1 + uint(bits%10)
		src := relation.New(width, len(data)/width)
		copy(src.Bytes(), data)
		checkRouted(t, src, b, seed, 1+int(maxLimit%16))
	})
}
