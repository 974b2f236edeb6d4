// Package mcjoin implements the single-machine, multi-core baselines the
// paper compares against (Section 6.1/6.3):
//
//   - RadixJoin: the parallel radix hash join of Balkesen et al. [4],
//     extended as in the paper with NUMA-region task queues (a thread
//     drains the queue of its own region before stealing from others) and
//     support for large inputs.
//   - NoPartitionJoin: the hardware-oblivious no-partitioning hash join of
//     Blanas et al. [6]: a single shared hash table built and probed by
//     all threads, no partitioning passes.
//
// Both report the per-phase wall-clock breakdown used in Figure 5a.
package mcjoin

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"rackjoin/internal/hashtable"
	"rackjoin/internal/phase"
	"rackjoin/internal/radix"
	"rackjoin/internal/relation"
)

// Config controls the single-machine join algorithms.
type Config struct {
	// Threads is the number of worker threads; 0 means GOMAXPROCS.
	Threads int
	// Pass1Bits/Pass2Bits configure the two radix partitioning passes
	// (paper: 10+10 bits at rack scale; defaults 8+6 for laptop-scale
	// inputs). Pass2Bits may be zero for single-pass partitioning.
	Pass1Bits uint
	Pass2Bits uint
	// NUMARegions models the number of NUMA regions for task-queue
	// placement; 0 or 1 disables NUMA awareness.
	NUMARegions int
	// Kernels selects the hot-loop implementations (scatter and probe),
	// mirroring core.Config.Kernels: radix.KernelAuto picks per platform,
	// KernelScalar/KernelWC force one flavour for ablations.
	Kernels radix.Kernel
}

func (c *Config) normalize() {
	if c.Threads <= 0 {
		c.Threads = runtime.GOMAXPROCS(0)
	}
	if c.Pass1Bits == 0 {
		c.Pass1Bits = 8
	}
	if c.NUMARegions <= 0 {
		c.NUMARegions = 1
	}
}

// Result reports the join outcome and phase breakdown.
type Result struct {
	Matches  uint64
	Checksum uint64
	Phases   phase.Times
}

// RadixJoin executes the parallel radix hash join over inner ⋈ outer on
// key equality.
func RadixJoin(inner, outer *relation.Relation, cfg Config) (*Result, error) {
	cfg.normalize()
	if inner.Width() != outer.Width() {
		return nil, fmt.Errorf("mcjoin: tuple width mismatch %d vs %d", inner.Width(), outer.Width())
	}
	res := &Result{}
	b1, b2 := cfg.Pass1Bits, cfg.Pass2Bits

	// --- Histogram phase: per-thread pass-1 histograms of both inputs.
	start := time.Now()
	histR := parallelHistograms(inner, cfg.Threads, 0, b1)
	histS := parallelHistograms(outer, cfg.Threads, 0, b1)
	res.Phases.Histogram = time.Since(start)

	// --- Pass 1: parallel scatter into partition-contiguous slabs.
	start = time.Now()
	partR, boundsR := parallelScatter(inner, histR, cfg.Threads, 0, b1, cfg.Kernels)
	partS, boundsS := parallelScatter(outer, histS, cfg.Threads, 0, b1, cfg.Kernels)
	res.Phases.NetworkPartition = time.Since(start)

	// --- Pass 2 + build-probe: one task per pass-1 partition, queued by
	// NUMA region; workers prefer their own region's queue.
	start = time.Now()
	np1 := 1 << b1
	queues := newRegionQueues(cfg.NUMARegions, np1)
	for p := 0; p < np1; p++ {
		queues.push(p*cfg.NUMARegions/np1, p)
	}
	var local2, bp int64 // accumulated per-thread nanoseconds (max later)
	var mu sync.Mutex
	var wg sync.WaitGroup
	for t := 0; t < cfg.Threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			region := t * cfg.NUMARegions / cfg.Threads
			w := &mcWorker{kern: cfg.Kernels, pt: radix.NewPartitioner(cfg.Kernels)}
			var tLocal, tBP time.Duration
			for {
				p, ok := queues.pop(region)
				if !ok {
					break
				}
				r := radix.PartitionView(partR, boundsR, p)
				s := radix.PartitionView(partS, boundsS, p)
				l, b := w.joinPartition(r, s, b1, b2)
				tLocal += l
				tBP += b
			}
			mu.Lock()
			res.Matches += w.matches
			res.Checksum += w.checksum
			if int64(tLocal) > local2 {
				local2 = int64(tLocal)
			}
			if int64(tBP) > bp {
				bp = int64(tBP)
			}
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// Apportion the fused pass2+build-probe wall time by the measured
	// per-thread maxima so the breakdown matches the paper's reporting.
	if local2+bp > 0 {
		res.Phases.LocalPartition = time.Duration(float64(elapsed) * float64(local2) / float64(local2+bp))
		res.Phases.BuildProbe = elapsed - res.Phases.LocalPartition
	} else {
		res.Phases.BuildProbe = elapsed
	}
	return res, nil
}

// mcWorker carries one thread's kernel scratch (partitioner staging and
// destinations, hash table, probe batch) and match accumulators across
// its tasks: each task overwrites the previous one's scratch.
type mcWorker struct {
	kern     radix.Kernel
	pt       *radix.Partitioner
	subR     relation.Buffer
	subS     relation.Buffer
	tbl      hashtable.Table
	batch    hashtable.Batch
	matches  uint64
	checksum uint64
}

// joinPartition sub-partitions one pass-1 partition pair by b2 bits and
// builds/probes each sub-partition. It returns the time spent in local
// partitioning vs build-probe and accumulates matches into the worker.
func (w *mcWorker) joinPartition(r, s *relation.Relation, b1, b2 uint) (localTime, bpTime time.Duration) {
	if b2 == 0 || r.Len() == 0 || s.Len() == 0 {
		start := time.Now()
		w.buildProbe(r, s)
		return 0, time.Since(start)
	}
	start := time.Now()
	subR, bR := w.pt.Partition(&w.subR, r, b1, b2)
	subS, bS := w.pt.Partition(&w.subS, s, b1, b2)
	localTime = time.Since(start)

	start = time.Now()
	for q := 0; q < 1<<b2; q++ {
		w.buildProbe(radix.PartitionView(subR, bR, q), radix.PartitionView(subS, bS, q))
	}
	return localTime, time.Since(start)
}

func (w *mcWorker) buildProbe(r, s *relation.Relation) {
	if r.Len() == 0 || s.Len() == 0 {
		return
	}
	tbl := &w.tbl
	tbl.Rebuild(r)
	var m, c uint64
	if w.kern.BatchProbe(tbl.Len()) {
		m, c = tbl.ProbeRelationBatch(s, &w.batch)
	} else {
		m, c = tbl.ProbeRelation(s)
	}
	w.matches += m
	w.checksum += c
}

// parallelHistograms computes per-thread histograms over equal contiguous
// slices of rel.
func parallelHistograms(rel *relation.Relation, threads int, shift, bits uint) [][]int64 {
	hists := make([][]int64, threads)
	var wg sync.WaitGroup
	n := rel.Len()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := make([]int64, 1<<bits)
			radix.AddHistogram(h, rel.Slice(n*t/threads, n*(t+1)/threads), shift, bits)
			hists[t] = h
		}(t)
	}
	wg.Wait()
	return hists
}

// parallelScatter scatters rel into a fresh slab using per-thread cursors
// derived from the per-thread histograms: thread t writes partition p at
// globalPrefix[p] + Σ_{t'<t} hist[t'][p], so threads never collide.
func parallelScatter(rel *relation.Relation, hists [][]int64, threads int, shift, bits uint, kern radix.Kernel) (*relation.Relation, []int64) {
	np := 1 << bits
	global := make([]int64, np)
	for _, h := range hists {
		for p, c := range h {
			global[p] += c
		}
	}
	prefix, _ := radix.PrefixSum(global)
	cursors := make([][]int64, threads)
	for p := 0; p < np; p++ {
		off := prefix[p]
		for t := 0; t < threads; t++ {
			if cursors[t] == nil {
				cursors[t] = make([]int64, np)
			}
			cursors[t][p] = off
			off += hists[t][p]
		}
	}
	dst := relation.NewAligned(rel.Width(), rel.Len())
	n := rel.Len()
	useWC := kern.Resolve(rel.Width(), bits) == radix.KernelWC
	var wg sync.WaitGroup
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			slice := rel.Slice(n*t/threads, n*(t+1)/threads)
			if useWC {
				radix.ScatterWC(slice, dst, cursors[t], shift, bits, nil)
			} else {
				radix.Scatter(slice, dst, cursors[t], shift, bits)
			}
		}(t)
	}
	wg.Wait()
	return dst, radix.Bounds(global)
}
