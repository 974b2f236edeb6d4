package core

import (
	"bytes"
	"strings"
	"testing"

	"rackjoin/internal/cluster"
	"rackjoin/internal/radix"
	"rackjoin/internal/relation"
)

// TestScatterLocalOverflow feeds the network pass one more tuple for a
// locally owned partition than the thread's histogram counted. The local
// window's limit is that count, so the scatter must return an error
// naming the machine and the partition, and must not write into the
// neighbouring partition's slab range.
func TestScatterLocalOverflow(t *testing.T) {
	const width = relation.Width16
	for _, kern := range []radix.Kernel{radix.KernelScalar, radix.KernelWC} {
		// Histogram: two tuples in each of partitions 0..2, none in 3.
		// The slice holds one tuple for 0, then three for 1: the third
		// (key 9) overflows partition 1 before any tuple of 2 arrives.
		hist := []int64{2, 2, 2, 0}
		rel := relation.New(width, 6)
		for i, k := range []uint64{0, 1, 5, 9, 2, 6} {
			rel.SetKey(i, k)
			rel.SetRID(i, uint64(100+i))
		}
		slab := relation.New(width, 6)
		sentinel := bytes.Repeat([]byte{0xEE}, slab.Size())
		copy(slab.Bytes(), sentinel)
		st := &machineState{
			cfg:         &Config{NetworkBits: 2, Kernels: kern},
			m:           &cluster.Machine{ID: 2},
			nm:          1,
			np:          4,
			width:       width,
			partThreads: 1,
			threadHistR: [][]int64{hist},
			slabOffR:    [][]int64{2: {0, 2, 4, 6}},
			owner:       []int{2, 2, 2, 2},
			broadcast:   make([]bool, 4),
			slabR:       slab,
			threads:     make([]*threadState, 1),
			pools:       make([]*bufferPool, 1),
		}
		err := st.scatterSlice(0, rel, false)
		if err == nil {
			t.Fatalf("%v: overflowing local partition accepted", kern)
		}
		if msg := err.Error(); !strings.Contains(msg, "machine 2") || !strings.Contains(msg, "partition 1 of R") {
			t.Fatalf("%v: error %q does not name the machine and partition", kern, msg)
		}
		// Partition 1's range holds its first two tuples (keys 1 and 5);
		// partition 2's range, right behind it, is untouched.
		got := slab.Bytes()
		if !bytes.Equal(got[2*width:4*width], rel.Bytes()[width:3*width]) {
			t.Fatalf("%v: partition 1's range lost its tuples", kern)
		}
		if !bytes.Equal(got[4*width:], sentinel[4*width:]) {
			t.Fatalf("%v: overflow wrote into partition 2's slab range", kern)
		}
	}
}
