package core

import (
	"encoding/binary"
	"sync"
	"sync/atomic"
	"time"

	"rackjoin/internal/hashtable"
	"rackjoin/internal/metrics"
	"rackjoin/internal/radix"
	"rackjoin/internal/relation"
)

func le64(b []byte) uint64 { return binary.LittleEndian.Uint64(b) }

// joinWorker accumulates one worker core's results and per-phase time. Its
// id doubles as the worker's deque index in the scheduler.
type joinWorker struct {
	st       *machineState
	id       int
	sched    *scheduler
	shipper  *resultShipper     // remote result path (Section 4.3), may be nil
	pt       *radix.Partitioner // local-pass scatter kernels + staging
	scratch  *workerScratch     // resident local-pass outputs and tables
	batch    hashtable.Batch    // batched-probe scratch
	err      error              // first shipping error, surfaced after the phase
	matches  uint64
	checksum uint64
	tLocal   time.Duration
	tBP      time.Duration
	results  []byte // materialisation scratch when ResultSink is set
}

func (st *machineState) newJoinWorker(id int, sched *scheduler, shippers []*resultShipper) *joinWorker {
	w := &joinWorker{st: st, id: id, sched: sched, pt: radix.NewPartitioner(st.cfg.Kernels),
		scratch: st.localScratch().workers[id]}
	if shippers != nil {
		w.shipper = shippers[id]
	}
	return w
}

// localPassScratch is a machine's resident local-pass scratch, one entry
// per worker core, kept in the machine's arena across joins.
type localPassScratch struct {
	workers []*workerScratch
}

// workerScratch is one worker's scratch: a private hash table for the
// build-probe of a partition pair it joins start to finish, and the
// scratch sets its partitions are sub-partitioned into.
type workerScratch struct {
	tbl  hashtable.Table
	sets []*scratchSet
}

// scratchSet holds one processPartition's outputs: the two sub-partitioned
// relations and the hash tables its skew-split subtasks share. Split
// subtasks may run on other workers after processPartition returned, so a
// set is reference-counted: processPartition holds one reference, every
// subtask holding a view into the set holds another, and the owning
// worker reuses the set only once the count is back to zero.
type scratchSet struct {
	subR, subS relation.Buffer
	tables     []*hashtable.Table
	ntables    int
	refs       atomic.Int32
}

// localScratch returns the machine's resident local-pass scratch.
func (st *machineState) localScratch() *localPassScratch {
	if ls, ok := st.arena.Scratch.(*localPassScratch); ok {
		return ls
	}
	ls := &localPassScratch{workers: make([]*workerScratch, st.m.Cores)}
	for i := range ls.workers {
		ls.workers[i] = &workerScratch{}
	}
	st.arena.Scratch = ls
	return ls
}

// resetScratch voids the references a previous join left on this
// machine's scratch sets: no task survives its join, but an aborted one
// may never have run its release. Called under the lease before any
// worker starts.
func (st *machineState) resetScratch() {
	for _, ws := range st.localScratch().workers {
		for _, set := range ws.sets {
			set.refs.Store(0)
		}
	}
}

// acquire returns a free scratch set holding one reference, growing the
// worker's pool only when every set is pinned by unfinished subtasks.
// Only the owning worker acquires, and a set at zero references has no
// other holder, so the check-then-store needs no CAS.
func (ws *workerScratch) acquire() *scratchSet {
	for _, set := range ws.sets {
		if set.refs.Load() == 0 {
			set.refs.Store(1)
			set.ntables = 0
			return set
		}
	}
	set := &scratchSet{}
	set.refs.Store(1)
	ws.sets = append(ws.sets, set)
	return set
}

// hold adds a reference for a subtask about to be queued.
func (s *scratchSet) hold() { s.refs.Add(1) }

// release drops a reference once its holder is done reading the set.
func (s *scratchSet) release() { s.refs.Add(-1) }

// table returns a hash table of the set not yet used by this
// processPartition, for a build shared by queued subtasks.
func (s *scratchSet) table() *hashtable.Table {
	if s.ntables == len(s.tables) {
		s.tables = append(s.tables, &hashtable.Table{})
	}
	t := s.tables[s.ntables]
	s.ntables++
	return t
}

// push queues a child task (a skew-split product) on this worker's own
// deque: LIFO pop keeps the split's cache lines hot, and idle peers steal
// from the head.
func (w *joinWorker) push(t schedTask) { w.sched.pushLocal(w.id, t) }

// workerLoop runs scheduler tasks until the phase drains (or aborts).
func (st *machineState) workerLoop(w *joinWorker) {
	for {
		task, ok := w.sched.next(w.id)
		if !ok {
			return
		}
		if st.pipe != nil {
			st.pipe.noteTaskStart()
		}
		task(w)
		w.sched.done()
	}
}

// collectWorkers folds the workers' results and kernel telemetry into the
// machine state and returns the per-worker phase-time maxima used to
// apportion the fused wall time.
func (st *machineState) collectWorkers(workers []*joinWorker) (maxLocal, maxBP time.Duration) {
	var bytesScalar, bytesWC, wcFlushes uint64
	for _, w := range workers {
		if w == nil {
			continue
		}
		st.matches += w.matches
		st.checksum += w.checksum
		bytesScalar += w.pt.BytesScalar
		bytesWC += w.pt.BytesWC
		wcFlushes += w.pt.Flushes
		if w.tLocal > maxLocal {
			maxLocal = w.tLocal
		}
		if w.tBP > maxBP {
			maxBP = w.tBP
		}
	}
	if bytesScalar > 0 {
		st.met.Counter("kernel_bytes_total",
			metrics.L("kernel", "scalar"), metrics.L("phase", "localpass")).Add(bytesScalar)
	}
	if bytesWC > 0 {
		st.met.Counter("kernel_bytes_total",
			metrics.L("kernel", "wc"), metrics.L("phase", "localpass")).Add(bytesWC)
	}
	if wcFlushes > 0 {
		st.met.Counter("kernel_wc_flushes_total", metrics.L("phase", "localpass")).Add(wcFlushes)
	}
	return maxLocal, maxBP
}

// exportSchedulerMetrics publishes the scheduler's counters through the
// registry so /metrics and the sampler pick them up.
func (st *machineState) exportSchedulerMetrics(s *scheduler) {
	st.met.Counter("scheduler_steals_total").Add(s.steals.Load())
	st.met.Counter("scheduler_injects_total").Add(s.injects.Load())
	if sp := s.spills.Load(); sp > 0 {
		st.met.Counter("scheduler_spills_total").Add(sp)
	}
	if ts := s.splits.Load(); ts > 0 {
		st.met.Counter("skew_task_splits_total").Add(ts)
		st.skewStats.TaskSplits += ts
	}
}

// localPassAndBuildProbe runs phases 3 and 4 in barrier mode: every
// resident partition is injected up front, then sub-partitioned to cache
// size and joined, with oversized tasks split across workers when skew
// handling is enabled. (Pipelined mode injects partitions as they complete
// instead — see runPipelined.)
func (st *machineState) localPassAndBuildProbe() error {
	sched := newScheduler(st.m.Cores)
	sched.flight, sched.machine = st.cfg.Flight, st.m.ID
	roots := 0
	for _, p := range st.resident {
		if st.globalR[p] == 0 && st.globalS[p] == 0 {
			continue
		}
		roots++
	}
	sched.reserve(roots)
	for _, p := range st.resident {
		p := p
		if st.globalR[p] == 0 && st.globalS[p] == 0 {
			continue
		}
		sched.inject(func(w *joinWorker) { w.processPartition(p) })
	}

	start := time.Now()
	workers := make([]*joinWorker, st.m.Cores)
	err := st.runResultPlane(func(shippers []*resultShipper) error {
		var wg sync.WaitGroup
		for i := range workers {
			workers[i] = st.newJoinWorker(i, sched, shippers)
			wg.Add(1)
			go func(w *joinWorker) {
				defer wg.Done()
				st.workerLoop(w)
			}(workers[i])
		}
		wg.Wait()
		for _, w := range workers {
			if w.err != nil {
				return w.err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	maxLocal, maxBP := st.collectWorkers(workers)
	st.exportSchedulerMetrics(sched)
	// Apportion the fused wall time by the measured per-worker maxima so
	// the breakdown matches the paper's per-phase reporting.
	if maxLocal+maxBP > 0 {
		st.phases.LocalPartition = time.Duration(float64(elapsed) * float64(maxLocal) / float64(maxLocal+maxBP))
		st.phases.BuildProbe = elapsed - st.phases.LocalPartition
	}
	return nil
}

// skewThreshold returns the build-probe task size above which the outer
// side is split (SkewSplitFactor × average tuples per final partition);
// 0 disables splitting.
func (st *machineState) skewThreshold() int {
	factor := st.cfg.SkewSplitFactor
	if factor <= 0 {
		if st.skewMode != SkewSplit {
			return 0
		}
		// The skew engine implies local splitting: default to the same 4×
		// ratio the health plane's hot_partition detector alarms on.
		factor = 4.0
	}
	var totalS int64
	for _, c := range st.globalS {
		totalS += c
	}
	finalParts := int64(st.np) << st.cfg.LocalBits
	avg := float64(totalS) / float64(finalParts)
	th := int(factor * avg)
	if th < 1 {
		th = 1
	}
	return th
}

// processPartition sub-partitions resident partition p by the local bit
// window and joins every sub-partition, splitting oversized ones.
func (w *joinWorker) processPartition(p int) {
	st := w.st
	self := st.m.ID
	sTuples := st.globalS[p]
	if st.broadcast[p] {
		// Work sharing: this machine probes only its local outer share
		// against the full replicated inner partition. Skew-split
		// partitions probe the dealt-in share instead — the shares are
		// disjoint across machines and the inner replicas complete, so
		// the union of all machines' probes is exactly the partition's
		// join with no duplicates.
		sTuples = int64(st.allHistS[self][p])
		if st.isSplit(p) {
			sTuples = st.splitRecvTotal(p, self)
		}
	}
	r := st.slabR.Slice(int(st.slabOffR[self][p]), int(st.slabOffR[self][p]+st.globalR[p]))
	s := st.slabS.Slice(int(st.slabOffS[self][p]), int(st.slabOffS[self][p]+sTuples))
	b1, b2 := st.cfg.NetworkBits, st.cfg.LocalBits
	threshold := st.skewThreshold()
	set := w.scratch.acquire()
	defer set.release()

	if b2 == 0 {
		w.buildProbe(set, r, s, threshold)
		return
	}

	// Local partitioning pass (Section 4.2.3): no network involvement.
	// The partitioner runs the configured scatter kernel into the scratch
	// set's resident buffers.
	start := time.Now()
	subR, bR := w.pt.Partition(&set.subR, r, b1, b2)
	subS, bS := w.pt.Partition(&set.subS, s, b1, b2)
	w.tLocal += time.Since(start)

	for q := 0; q < 1<<b2; q++ {
		w.buildProbe(set, radix.PartitionView(subR, bR, q), radix.PartitionView(subS, bS, q), threshold)
	}
}

// buildProbe joins one cache-sized partition pair whose views point into
// set (or the slabs). With skew handling enabled, an oversized outer side
// is split into range-probe subtasks sharing one hash table, and an
// oversized inner side into several smaller hash tables each probed with
// the full outer part (Section 4.3). Every queued subtask holds a
// reference on set until it ran, so the set's buffers and shared table
// outlive processPartition for as long as a subtask may read them.
func (w *joinWorker) buildProbe(set *scratchSet, r, s *relation.Relation, threshold int) {
	if r.Len() == 0 || s.Len() == 0 {
		return
	}
	if threshold > 0 && r.Len() > threshold {
		// Inner-relation skew: split the build side into several hash
		// tables; every chunk is probed with the full outer part.
		for lo := 0; lo < r.Len(); lo += threshold {
			hi := lo + threshold
			if hi > r.Len() {
				hi = r.Len()
			}
			chunk := r.Slice(lo, hi)
			set.hold()
			w.push(func(cw *joinWorker) {
				defer set.release()
				cw.buildProbe(set, chunk, s, 0)
			})
		}
		return
	}
	if threshold > 0 && s.Len() > 2*threshold {
		// Outer-relation skew: build once, split the probe range across
		// subtasks that share the read-only table. With the skew engine
		// on, the range is splittable mid-run instead of pre-chunked:
		// idle workers halve whatever remains, so a mis-estimated hot
		// range cannot strand one worker with the tail.
		start := time.Now()
		tbl := set.table()
		tbl.Rebuild(r)
		w.tBP += time.Since(start)
		if w.st.skewMode == SkewSplit {
			w.probeSplittable(set, tbl, s, 0, s.Len(), threshold)
			return
		}
		for lo := 0; lo < s.Len(); lo += threshold {
			hi := lo + threshold
			if hi > s.Len() {
				hi = s.Len()
			}
			lo, hi := lo, hi
			set.hold()
			w.push(func(cw *joinWorker) {
				defer set.release()
				cw.probe(tbl, s, lo, hi)
			})
		}
		return
	}
	// Joined start to finish here: the worker's private table suffices.
	start := time.Now()
	tbl := &w.scratch.tbl
	tbl.Rebuild(r)
	w.tBP += time.Since(start)
	w.probe(tbl, s, 0, s.Len())
}

// probeSplittable probes [lo, hi) as a mid-run-splittable task: the range
// is advertised to the scheduler so idle workers can steal the top half
// while it runs, and the owner claims chunk-sized pieces off the bottom.
// Stolen halves are themselves splittable — a hot partition keeps
// shedding work for as long as anyone is idle.
//
// A stolen half holds its own reference on set: spawn runs while this
// call still holds one (the offer is retracted before it returns).
func (w *joinWorker) probeSplittable(set *scratchSet, tbl *hashtable.Table, s *relation.Relation, lo, hi, chunk int) {
	rng := &splitRange{lo: lo, hi: hi}
	o := &splitOffer{
		rng: rng,
		spawn: func(lo, hi int) schedTask {
			set.hold()
			return func(cw *joinWorker) {
				defer set.release()
				cw.probeSplittable(set, tbl, s, lo, hi, chunk)
			}
		},
	}
	w.sched.offer(o)
	for {
		clo, chi, ok := rng.claim(chunk)
		if !ok {
			break
		}
		w.probe(tbl, s, clo, chi)
	}
	w.sched.retract(o)
}

func (w *joinWorker) probe(tbl *hashtable.Table, s *relation.Relation, lo, hi int) {
	start := time.Now()
	batched := w.st.cfg.Kernels.BatchProbe(tbl.Len())
	if sink := w.st.cfg.ResultSink; sink != nil {
		var out []byte
		var m uint64
		if batched {
			out, m = tbl.MaterializeBatch(s, lo, hi, &w.batch, w.results[:0])
		} else {
			out, m = tbl.Materialize(s.Slice(lo, hi), w.results[:0])
		}
		w.matches += m
		for off := 0; off < len(out); off += hashtable.ResultWidth {
			w.checksum += le64(out[off:]) + le64(out[off+8:]) + le64(out[off+16:])
		}
		if len(out) > 0 {
			if w.shipper != nil {
				// Section 4.3: write results into RDMA-enabled output
				// buffers bound for the target machine.
				if err := w.shipper.emit(out); err != nil && w.err == nil {
					w.err = err
				}
			} else {
				records := make([]byte, len(out))
				copy(records, out)
				sink(w.st.m.ID, records)
			}
		}
		w.results = out[:0]
	} else {
		var m, c uint64
		if batched {
			m, c = tbl.ProbeRangeBatch(s, lo, hi, &w.batch)
		} else {
			m, c = tbl.ProbeRange(s, lo, hi)
		}
		w.matches += m
		w.checksum += c
	}
	w.tBP += time.Since(start)
}
