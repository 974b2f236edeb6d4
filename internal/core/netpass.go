package core

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"
	"time"

	"rackjoin/internal/metrics"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// atomicWRID marks fetch-and-add completions on a thread's send CQ so
// they are distinguishable from buffer-transfer completions (whose WRIDs
// are pool buffer indexes).
const atomicWRID = uint64(1) << 62

// relationFlag marks S-relation buffers in the immediate value of channel
// transfers; the low 31 bits carry the partition id.
const relationFlag = uint32(1) << 31

// bufferPool manages one thread's pre-allocated, pre-registered
// RDMA-enabled buffers (Section 4.2.1): a slice of the machine's resident
// send-pool region. Buffers are acquired for filling, posted when full,
// and returned by polling the thread's send completion queue. The pool
// thereby enforces the cardinal RDMA discipline: a buffer is reused only
// after its transfer completed. A buffer is posted only for the prefix
// its fill wrote, so stale bytes from an earlier join are never sent.
type bufferPool struct {
	mr      *rdma.MemoryRegion
	base    int // byte offset of buffer 0 within mr
	bufSize int
	cq      *rdma.CompletionQueue
	free    []int32
	// outstanding counts posted-but-not-completed buffers.
	outstanding int
	// stalls counts acquisitions that blocked on a completion.
	stalls uint64
	// atomicMR[atomicOff:+8] is the thread's landing pad for
	// fetch-and-add results (atomic-append transport); each fetch
	// overwrites it before it is read.
	atomicMR  *rdma.MemoryRegion
	atomicOff int

	// Registry handles (nil-safe): waitHist records time spent blocked on
	// completions when the pool is dry, stallCtr mirrors stalls, flushes
	// counts shipped buffers (buffer swaps).
	waitHist *metrics.Histogram
	stallCtr *metrics.Counter
	flushes  *metrics.Counter
	// onStall, when set, mirrors each stall into the flight recorder
	// (and, when scheduled, the adaptive sizer's shrink signal).
	onStall func()

	// Per-destination in-flight accounting for the adaptive transfer
	// budgets (netsched): destOf[i] is the destination of buffer i's
	// outstanding transfer, inflightTo the per-destination in-flight
	// counts. nil when unscheduled — every recycle path goes through
	// recycle(), which keeps the counts consistent either way.
	destOf     []int32
	inflightTo []int
}

// recycle returns a completed transfer's buffer to the pool, releasing
// its per-destination in-flight slot. Every completion path — reap,
// acquire's wait loop, waitOne, waitAtomic, the pipelined drain — must
// come through here so the budget accounting cannot leak.
func (p *bufferPool) recycle(i int32) {
	p.free = append(p.free, i)
	p.outstanding--
	if p.inflightTo != nil {
		p.inflightTo[p.destOf[i]]--
	}
}

// markInflight records a successful post of buffer i toward dest.
func (p *bufferPool) markInflight(i int32, dest int) {
	p.outstanding++
	if p.inflightTo != nil {
		p.destOf[i] = int32(dest)
		p.inflightTo[dest]++
	}
}

// newBufferPool carves count buffers of bufSize bytes out of mr, starting
// at byte offset base.
func newBufferPool(cq *rdma.CompletionQueue, mr *rdma.MemoryRegion, base, bufSize, count int) *bufferPool {
	p := &bufferPool{mr: mr, base: base, bufSize: bufSize, cq: cq, free: make([]int32, 0, count)}
	for i := count - 1; i >= 0; i-- {
		p.free = append(p.free, int32(i))
	}
	return p
}

// waitAtomic blocks until the pending fetch-and-add completes, recycling
// any buffer completions that arrive first, and returns the fetched value.
func (p *bufferPool) waitAtomic() (uint64, error) {
	for {
		c := p.cq.Wait()
		if err := c.Err(); err != nil {
			return 0, err
		}
		if c.WRID == atomicWRID {
			return binary.LittleEndian.Uint64(p.atomicMR.Bytes()[p.atomicOff:]), nil
		}
		p.recycle(int32(c.WRID))
	}
}

// off returns the byte offset of buffer i within the pool's region.
func (p *bufferPool) off(i int32) int { return p.base + int(i)*p.bufSize }

// buf returns the byte range of buffer i.
func (p *bufferPool) buf(i int32) []byte {
	off := p.off(i)
	return p.mr.Bytes()[off : off+p.bufSize : off+p.bufSize]
}

// reap recycles all already-available completions without blocking.
func (p *bufferPool) reap() error {
	var batch [16]rdma.Completion
	for {
		n := p.cq.Poll(batch[:])
		if n == 0 {
			return nil
		}
		for _, c := range batch[:n] {
			if err := c.Err(); err != nil {
				return err
			}
			p.recycle(int32(c.WRID))
		}
	}
}

// acquire returns a free buffer index, blocking on completions when the
// pool is exhausted (the back-pressure of a network-bound run).
func (p *bufferPool) acquire() (int32, error) {
	if err := p.reap(); err != nil {
		return 0, err
	}
	var waitStart time.Time
	for len(p.free) == 0 {
		if p.outstanding == 0 {
			return 0, fmt.Errorf("core: buffer pool exhausted with no transfers in flight")
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		p.stalls++
		p.stallCtr.Inc()
		if p.onStall != nil {
			p.onStall()
		}
		c := p.cq.Wait()
		if err := c.Err(); err != nil {
			return 0, err
		}
		p.recycle(int32(c.WRID))
	}
	if !waitStart.IsZero() {
		p.waitHist.ObserveSince(waitStart)
	}
	i := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return i, nil
}

// release returns an unposted buffer to the pool.
func (p *bufferPool) release(i int32) { p.free = append(p.free, i) }

// drain blocks until every posted buffer has completed.
func (p *bufferPool) drain() error {
	for p.outstanding > 0 {
		if err := p.waitOne(); err != nil {
			return err
		}
	}
	return nil
}

// waitOne blocks for a single completion and recycles its buffer.
func (p *bufferPool) waitOne() error {
	c := p.cq.Wait()
	if err := c.Err(); err != nil {
		return err
	}
	p.recycle(int32(c.WRID))
	return nil
}

// allocPools pre-allocates and pre-registers each partitioning thread's
// buffer pool (setup, untimed — the paper draws buffers "from a pool
// containing preallocated and preregistered buffers").
func (st *machineState) allocPools() error {
	st.pools = make([]*bufferPool, st.partThreads)
	st.threads = make([]*threadState, st.partThreads)
	// Resolve the netpass kernel-bytes counter once here (single-threaded
	// setup) instead of per scatterSlice call: the labels are fixed for the
	// whole run, and resolving in the hot path cost two label allocations
	// plus a registry lookup per slice.
	kern := "scalar"
	if st.cfg.Kernels.Resolve(st.width, st.cfg.NetworkBits) == radix.KernelWC {
		kern = "wc"
	}
	st.netKernelBytes = st.met.Counter("kernel_bytes_total",
		metrics.L("kernel", kern), metrics.L("phase", "netpass"))
	if st.nm == 1 || st.cfg.Transport == TransportOneSidedRead {
		return nil // pull mode ships nothing from the sender side
	}
	// Remote partitions each need BuffersPerPartition buffers; broadcast
	// partitions replicate their inner side to all nm-1 peers; skew-split
	// partitions additionally deal their outer side to all nm-1 peers.
	remote := st.np - len(st.resident)
	numBcast := len(st.resident) - len(st.owned)
	numSplit := len(st.skewStats.SplitPartitions)
	count := st.cfg.BuffersPerPartition * (remote + (numBcast+numSplit)*(st.nm-1))
	if count <= 0 {
		return nil
	}
	poolBytes := count * st.cfg.BufferSize
	mr, err := st.arena.Region(regionSendPools, st.partThreads*poolBytes, 0)
	if err != nil {
		return err
	}
	var pads *rdma.MemoryRegion
	if st.cfg.Transport == TransportOneSidedAtomic {
		if pads, err = st.arena.Region(regionAtomicPads, st.partThreads*8, rdma.AccessLocalWrite); err != nil {
			return err
		}
	}
	for t := 0; t < st.partThreads; t++ {
		pool := newBufferPool(st.sendCQ[t], mr, t*poolBytes, st.cfg.BufferSize, count)
		pool.atomicMR, pool.atomicOff = pads, t*8
		ts := st.met.With(metrics.L("thread", strconv.Itoa(t)))
		pool.waitHist = ts.Histogram("netpass_buffer_wait_seconds")
		pool.stallCtr = ts.Counter("netpass_buffer_stalls_total")
		pool.flushes = ts.Counter("netpass_buffer_flushes_total")
		if st.cfg.Flight != nil {
			t := t
			pool.onStall = func() { st.flight("pool_stall", fmt.Sprintf("thread %d pool dry", t), 0, 0) }
		}
		st.pools[t] = pool
	}
	// Per-destination link-bytes counters: the directed-link traffic
	// matrix the health plane's online engine reads.
	st.linkBytes = make([]*metrics.Counter, st.nm)
	for d := 0; d < st.nm; d++ {
		if d != st.m.ID {
			st.linkBytes[d] = st.met.Counter("netpass_link_bytes_total",
				metrics.L("dest", strconv.Itoa(d)))
		}
	}
	// Per-partition bytes-shipped counters, created here (single-threaded
	// setup) for exactly the partitions this machine ships: non-resident
	// ones and the replicated inner side of broadcast partitions.
	st.shipped = make([]*metrics.Counter, st.np)
	for p := 0; p < st.np; p++ {
		if !st.residentHere(p) || st.broadcast[p] {
			st.shipped[p] = st.met.Counter("netpass_bytes_shipped_total",
				metrics.L("partition", strconv.Itoa(p)))
		}
	}
	// Communication schedule + adaptive budgets (netsched.Off: no-op).
	st.initNetSched(count)
	return nil
}

// networkPartitionPass runs the partitioning threads (and, for channel
// semantics, the network thread) of the network partitioning pass.
func (st *machineState) networkPartitionPass() error {
	if st.cfg.Transport == TransportOneSidedRead {
		return st.pullNetworkPass()
	}
	nWorkers := st.partThreads
	errs := make([]error, nWorkers+1)
	var wg sync.WaitGroup
	if st.nm > 1 && st.cfg.usesNetworkThread() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if st.cfg.Transport == TransportTCP {
				errs[nWorkers] = st.tcpReceiveLoop()
			} else {
				errs[nWorkers] = st.receiveLoop()
			}
		}()
	}
	for t := 0; t < nWorkers; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			errs[t] = st.partitionThread(t)
		}(t)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for _, p := range st.pools {
		if p != nil {
			st.poolStalls += p.stalls
		}
	}
	return nil
}

// partitionThread scatters this thread's slices of R and S, then drains
// its outstanding transfers so that the pass ends only when all data is
// acknowledged by the receiving hosts.
func (st *machineState) partitionThread(t int) error {
	if err := st.scatterSlice(t, st.R, false); err != nil {
		return err
	}
	if err := st.scatterSlice(t, st.S, true); err != nil {
		return err
	}
	if st.pipe != nil {
		// Local slab writes are complete once every thread scattered both
		// relations; fully-received partitions become ready.
		st.pipe.scatterDone()
	}
	if pool := st.pools[t]; pool != nil {
		if st.pipe != nil {
			// Pipelined: recycle completions by polling and spend the
			// gaps on partition-ready join work instead of blocking.
			if err := st.pipe.drainInterleaved(pool, st.pipe.workers[t]); err != nil {
				return err
			}
		} else if err := pool.drain(); err != nil {
			return err
		}
	}
	if st.pipe != nil {
		return st.pipe.threadDrained()
	}
	return nil
}

// threadState carries the per-partition cursors of one scatter pass. Each
// partitioning thread keeps one for the whole join: reset re-aims it at
// the next slice without allocating.
type threadState struct {
	localCur  []int64 // byte cursor into the local slab; -1 for remote partitions
	curBuf    []int32 // current pool buffer per remote partition; -1 if none
	fill      []int32 // tuples in the current buffer
	remoteCur []int64 // one-sided: next tuple offset within the owner's slab
	scratch   []byte  // stream transport staging area
	wcCopy    bool    // kernel knob: word-copy tuples instead of memmove

	// Broadcast state (inner relation of work-shared partitions): one
	// buffer and remote cursor per (broadcast partition, destination),
	// indexed by partition — nil rows for partitions that are not
	// broadcast. bcastBuf is bcastRows during the inner scatter and the
	// all-nil noBcast during the outer one, so the hot loop's check is a
	// single slice load.
	bcastBuf, noBcast, bcastRows [][]int32
	bcastFill                    [][]int32
	bcastCur                     [][]int64
	// Split state (outer relation of skew-split partitions): split aliases
	// st.split during the outer scatter (nil otherwise — one predicted-away
	// nil check per remote tuple when the skew engine is off), and the
	// round-robin dealer fills one buffer per (partition, destination),
	// nil rows for unsplit partitions. Exact one-sided cursors live on
	// machineState (splitRemoteCur): they are shared across threads,
	// unlike the per-thread bcastCur.
	split     []bool
	splitBuf  [][]int32
	splitFill [][]int32
	// repBytes counts tuple bytes replicated into broadcast buffers —
	// kernel work on top of the input scan, folded into
	// kernel_bytes_total at end of slice.
	repBytes uint64

	// Parked buffers (netsched): FIFO of filled buffers waiting for
	// their pairing round; parkedHead skips posted entries, parkedLive
	// counts the ones still waiting.
	parked     []parkedBuf
	parkedHead int
	parkedLive int
}

// threadState returns partitioning thread t's scatter state, reset for
// its slice of the inner (isS false) or outer relation. Only thread t
// touches st.threads[t].
func (st *machineState) threadState(t int, isS bool) *threadState {
	ts := st.threads[t]
	if ts == nil {
		ts = st.newThreadState()
		st.threads[t] = ts
	}
	st.resetThreadState(ts, t, isS)
	return ts
}

// newThreadState allocates one thread's per-partition state for this join.
func (st *machineState) newThreadState() *threadState {
	ts := &threadState{
		localCur:  make([]int64, st.np),
		curBuf:    make([]int32, st.np),
		fill:      make([]int32, st.np),
		remoteCur: make([]int64, st.np),
		wcCopy:    st.cfg.Kernels.Resolve(st.width, st.cfg.NetworkBits) == radix.KernelWC,
		noBcast:   make([][]int32, st.np),
		bcastRows: make([][]int32, st.np),
		bcastFill: make([][]int32, st.np),
		bcastCur:  make([][]int64, st.np),
		splitBuf:  make([][]int32, st.np),
		splitFill: make([][]int32, st.np),
	}
	if st.cfg.Transport == TransportStream {
		ts.scratch = make([]byte, st.cfg.BufferSize)
	}
	for p := 0; p < st.np; p++ {
		if st.broadcast[p] { // includes split partitions' inner side
			ts.bcastRows[p] = make([]int32, st.nm)
			ts.bcastFill[p] = make([]int32, st.nm)
			ts.bcastCur[p] = make([]int64, st.nm)
		}
		if st.isSplit(p) {
			ts.splitBuf[p] = make([]int32, st.nm)
			ts.splitFill[p] = make([]int32, st.nm)
		}
	}
	return ts
}

// resetThreadState aims ts at thread t's slice of one relation.
func (st *machineState) resetThreadState(ts *threadState, t int, isS bool) {
	hists := st.threadHistR
	all := st.allHistR
	slabOff := st.slabOffR
	ts.bcastBuf, ts.split = ts.bcastRows, nil
	if isS {
		hists = st.threadHistS
		all = st.allHistS
		slabOff = st.slabOffS
		ts.bcastBuf, ts.split = ts.noBcast, st.split
	}
	ts.repBytes = 0
	w := int64(st.width)
	for p := 0; p < st.np; p++ {
		ts.curBuf[p] = -1
		ts.fill[p] = 0
		switch {
		case isS && st.isSplit(p):
			// The outer side of a split partition goes through the shared
			// round-robin dealer: no per-thread local cursor, one deal
			// buffer per destination.
			ts.localCur[p] = -1
			for d := range ts.splitBuf[p] {
				ts.splitBuf[p][d] = -1
				ts.splitFill[p][d] = 0
			}
		case st.residentHere(p):
			ts.localCur[p] = (st.localWriteBase(p, isS) + threadPrefix(hists, t, p)) * w
			if bufs := ts.bcastBuf[p]; bufs != nil {
				// The inner side of a work-shared partition is written
				// locally AND replicated to every peer.
				for d := 0; d < st.nm; d++ {
					bufs[d] = -1
					ts.bcastFill[p][d] = 0
					if d != st.m.ID {
						ts.bcastCur[p][d] = slabOff[d][p] + machinePrefix(all, st.m.ID, p) + threadPrefix(hists, t, p)
					}
				}
			}
		default:
			ts.localCur[p] = -1
			ts.remoteCur[p] = slabOff[st.owner[p]][p] + machinePrefix(all, st.m.ID, p) + threadPrefix(hists, t, p)
		}
	}
}

// scatterSlice is the hot loop of the network partitioning pass: it walks
// this thread's contiguous input slice and routes every tuple either into
// the local destination slab or into the RDMA buffer of its remote
// partition, shipping buffers as they fill.
//
//rack:hotpath
func (st *machineState) scatterSlice(t int, rel *relation.Relation, isS bool) error {
	width := st.width
	n := rel.Len()
	data := rel.Bytes()[n*t/st.partThreads*width : n*(t+1)/st.partThreads*width]
	ts := st.threadState(t, isS)
	pool := st.pools[t]

	slab := st.slabR
	if isS {
		slab = st.slabS
	}
	slabBytes := slab.Bytes()
	mask := uint64(st.np - 1)
	capTuples := int32(st.cfg.BufferSize / width)

	// The tuple move is the hot instruction of this loop: the wc kernel
	// copies whole words through relation.CopyTuple (no memmove dispatch,
	// adjacent stores combine in the store buffer); the scalar kernel keeps
	// the plain copy as the ablation baseline. The branch on ts.wcCopy is
	// loop-invariant and predicted away.
	for off := 0; off < len(data); off += width {
		tuple := data[off : off+width]
		p := int(binary.LittleEndian.Uint64(tuple) & mask)
		if cur := ts.localCur[p]; cur >= 0 {
			if ts.wcCopy {
				relation.CopyTuple(slabBytes[cur:], tuple, width)
			} else {
				copy(slabBytes[cur:], tuple)
			}
			ts.localCur[p] = cur + int64(width)
			if bufs := ts.bcastBuf[p]; bufs != nil {
				if err := st.replicate(t, ts, p, tuple, bufs, capTuples); err != nil {
					return err
				}
			}
			continue
		}
		if ts.split != nil && ts.split[p] {
			if err := st.dealSplit(t, ts, p, tuple, capTuples); err != nil {
				return err
			}
			continue
		}
		b := ts.curBuf[p]
		if b < 0 {
			var err error
			if b, err = st.acquireFor(t, ts); err != nil {
				return err
			}
			ts.curBuf[p] = b
			ts.fill[p] = 0
		}
		if ts.wcCopy {
			relation.CopyTuple(pool.buf(b)[int(ts.fill[p])*width:], tuple, width)
		} else {
			copy(pool.buf(b)[int(ts.fill[p])*width:], tuple)
		}
		ts.fill[p]++
		if ts.fill[p] == capTuples {
			if err := st.flush(t, ts, p, isS); err != nil {
				return err
			}
		}
	}
	// Input bytes plus the broadcast replicas: the scatter kernels wrote
	// both, so kernel_bytes_total must see both (replicated bytes used
	// to bypass this accounting).
	st.netKernelBytes.Add(uint64(len(data)) + ts.repBytes)
	// Ship partial buffers; return untouched ones to the pool.
	for p := 0; p < st.np; p++ {
		if ts.curBuf[p] >= 0 {
			if ts.fill[p] == 0 {
				pool.release(ts.curBuf[p])
				ts.curBuf[p] = -1
			} else if err := st.flush(t, ts, p, isS); err != nil {
				return err
			}
		}
		if bufs := ts.bcastBuf[p]; bufs != nil {
			for d := range bufs {
				if bufs[d] < 0 {
					continue
				}
				if ts.bcastFill[p][d] == 0 {
					pool.release(bufs[d])
					bufs[d] = -1
					continue
				}
				if err := st.flushBcast(t, ts, p, d); err != nil {
					return err
				}
			}
		}
		if bufs := ts.splitBuf[p]; bufs != nil && isS {
			for d := range bufs {
				if bufs[d] < 0 {
					continue
				}
				if ts.splitFill[p][d] == 0 {
					pool.release(bufs[d])
					bufs[d] = -1
					continue
				}
				if err := st.flushSplit(t, ts, p, d); err != nil {
					return err
				}
			}
		}
	}
	// Tail drain: cycle the schedule until every parked buffer posted —
	// the pass may not end (and EOP may not fire) with buffers held
	// back, and the slice's buffers may not outlive it.
	return st.drainParked(t, ts)
}

// replicate appends one inner tuple of broadcast partition p to the
// per-destination buffers, shipping any that fill up.
func (st *machineState) replicate(t int, ts *threadState, p int, tuple []byte, bufs []int32, capTuples int32) error {
	pool := st.pools[t]
	fill := ts.bcastFill[p]
	for d := 0; d < st.nm; d++ {
		if d == st.m.ID {
			continue
		}
		b := bufs[d]
		if b < 0 {
			var err error
			if b, err = st.acquireFor(t, ts); err != nil {
				return err
			}
			bufs[d] = b
			fill[d] = 0
		}
		if ts.wcCopy {
			relation.CopyTuple(pool.buf(b)[int(fill[d])*st.width:], tuple, st.width)
		} else {
			copy(pool.buf(b)[int(fill[d])*st.width:], tuple)
		}
		fill[d]++
		ts.repBytes += uint64(st.width)
		if fill[d] == capTuples {
			if err := st.flushBcast(t, ts, p, d); err != nil {
				return err
			}
		}
	}
	return nil
}

// dealSplit routes one outer tuple of skew-split partition p: a shared
// per-partition counter deals tuples round-robin across all machines, so
// the hot partition's probe work spreads evenly instead of landing on one
// straggler. Self-dealt tuples go straight into the local slab through
// the shared offset cursor; remote destinations fill per-destination
// buffers that ship through the same scheduled path as everything else.
func (st *machineState) dealSplit(t int, ts *threadState, p int, tuple []byte, capTuples int32) error {
	idx := st.splitNext[p].Add(1) - 1
	dest := (st.splitStartDest(st.m.ID, p) + int(idx%int64(st.nm))) % st.nm
	width := st.width
	if dest == st.m.ID {
		cur := (st.splitLocalCur[p].Add(1) - 1) * int64(width)
		slab := st.slabS.Bytes()
		if ts.wcCopy {
			relation.CopyTuple(slab[cur:], tuple, width)
		} else {
			copy(slab[cur:], tuple)
		}
		return nil
	}
	bufs := ts.splitBuf[p]
	fill := ts.splitFill[p]
	b := bufs[dest]
	if b < 0 {
		var err error
		if b, err = st.acquireFor(t, ts); err != nil {
			return err
		}
		bufs[dest] = b
		fill[dest] = 0
	}
	pool := st.pools[t]
	if ts.wcCopy {
		relation.CopyTuple(pool.buf(b)[int(fill[dest])*width:], tuple, width)
	} else {
		copy(pool.buf(b)[int(fill[dest])*width:], tuple)
	}
	fill[dest]++
	if fill[dest] == capTuples {
		return st.flushSplit(t, ts, p, dest)
	}
	return nil
}

// flushSplit ships the current deal buffer of (split partition p, dest).
// On the exact-placement transport the write range is pre-reserved from
// the shared per-(partition, destination) cursor; ship's park path copies
// the cursor value into the parked entry, so handing it a stack slot is
// safe even though the buffer may post out of order.
func (st *machineState) flushSplit(t int, ts *threadState, p, dest int) error {
	buf := ts.splitBuf[p][dest]
	tuples := ts.splitFill[p][dest]
	ts.splitBuf[p][dest] = -1
	ts.splitFill[p][dest] = 0
	var cur int64
	if st.cfg.Transport == TransportOneSided {
		cur = st.splitRemoteCur[p][dest].Add(int64(tuples)) - int64(tuples)
	}
	return st.ship(t, ts, buf, tuples, p, true, dest, &cur)
}

// flushBcast ships the current broadcast buffer of (partition p, dest)
// through the same scheduled posting path as everything else, so the
// communication schedule, the transfer budgets and the per-target
// accounting all see the replicated traffic.
func (st *machineState) flushBcast(t int, ts *threadState, p, dest int) error {
	buf := ts.bcastBuf[p][dest]
	tuples := ts.bcastFill[p][dest]
	ts.bcastBuf[p][dest] = -1
	ts.bcastFill[p][dest] = 0
	return st.ship(t, ts, buf, tuples, p, false, dest, &ts.bcastCur[p][dest])
}

// flush posts the current buffer of partition p towards its owner and
// detaches it from the thread state.
func (st *machineState) flush(t int, ts *threadState, p int, isS bool) error {
	buf := ts.curBuf[p]
	tuples := ts.fill[p]
	ts.curBuf[p] = -1
	ts.fill[p] = 0
	return st.ship(t, ts, buf, tuples, p, isS, st.owner[p], &ts.remoteCur[p])
}

// postBuffer ships one filled buffer of partition p to machine dest over
// the configured transport. remoteCur is the sender's exact-placement
// tuple cursor into dest's region (one-sided mode); it advances by the
// posted tuple count. With interleaving disabled the call blocks until
// the transfer is acknowledged (the Figure 5b "non-interleaved"
// ablation).
func (st *machineState) postBuffer(t int, ts *threadState, buf, tuples int32, p int, isS bool, dest int, remoteCur *int64) error {
	pool := st.pools[t]
	length := int(tuples) * st.width
	owner := dest
	pool.flushes.Inc()
	if st.shipped != nil && st.shipped[p] != nil {
		st.shipped[p].Add(uint64(length))
	}
	if st.linkBytes != nil && st.linkBytes[dest] != nil {
		st.linkBytes[dest].Add(uint64(length))
	}
	if st.skewRepl != nil && st.skewRepl[p] != nil {
		// Split-partition traffic — replicated inner tuples and dealt
		// outer tuples — is the price of the skew mitigation; the health
		// plane reads this counter to see the mitigation working.
		st.skewRepl[p].Add(uint64(length))
		st.skewReplBytes.Add(uint64(length))
	}

	if st.cfg.Transport == TransportTCP {
		// Kernel TCP: Send returns once the kernel copied the payload, so
		// the buffer is immediately reusable (copy semantics — the cost
		// the paper charges the TCP/IP implementation with).
		tag := uint32(p)
		if isS {
			tag |= relationFlag
		}
		err := st.tcp.Send(t, owner, tag, pool.buf(buf)[:length])
		pool.release(buf)
		if err != nil {
			return err
		}
		st.tcpBytes.Add(uint64(length))
		st.tcpMsgs.Add(1)
		return nil
	}

	qp := st.qps[t][owner]

	// Adaptive transfer budget: cap the in-flight transfers toward each
	// destination. An exhausted budget is back-pressure, not an error —
	// recycle any completion and re-check. in-flight ≤ outstanding, so
	// the wait always terminates.
	if pool.inflightTo != nil && st.netBudget != nil {
		waited := false
		for pool.inflightTo[dest] >= st.netBudget.Budget(dest) && pool.outstanding > 0 {
			if !waited {
				st.budgetWaits.Inc()
				waited = true
			}
			if err := pool.waitOne(); err != nil {
				pool.release(buf)
				return err
			}
		}
	}

	if st.cfg.Transport == TransportOneSidedAtomic {
		// Reserve the write range with a remote fetch-and-add on the
		// owner's append cursor — one extra round-trip per buffer, the
		// cost the histogram phase's precomputed offsets avoid.
		if err := qp.PostSend(rdma.SendWR{
			WRID: atomicWRID, Op: rdma.OpFetchAdd, Signaled: true,
			Add:    uint64(tuples),
			Local:  rdma.Segment{MR: pool.atomicMR, Offset: pool.atomicOff, Length: 8},
			Remote: rdma.RemoteSegment{RKey: uint32(st.rkeysCur[owner]), Offset: cursorOffset(p, isS)},
		}); err != nil {
			pool.release(buf)
			return err
		}
		fetched, err := pool.waitAtomic()
		if err != nil {
			pool.release(buf)
			return err
		}
		slabOff := st.slabOffR[owner]
		rkeys := st.rkeysR
		if isS {
			slabOff = st.slabOffS[owner]
			rkeys = st.rkeysS
		}
		wr := rdma.SendWR{
			WRID: uint64(buf), Signaled: true, Op: rdma.OpWrite,
			Local:  rdma.Segment{MR: pool.mr, Offset: pool.off(buf), Length: length},
			Remote: rdma.RemoteSegment{RKey: uint32(rkeys[owner]), Offset: (int(slabOff[p]) + int(fetched)) * st.width},
		}
		if err := qp.PostSend(wr); err != nil {
			pool.release(buf)
			return err
		}
		pool.markInflight(buf, dest)
		if !st.cfg.interleaved() {
			return pool.drain()
		}
		return nil
	}

	if ts.scratch != nil {
		// Stream transport: emulate the kernel-boundary copy of TCP/IP by
		// staging the payload once more before handing it to the wire.
		copy(ts.scratch, pool.buf(buf)[:length])
	}

	wr := rdma.SendWR{
		WRID:     uint64(buf),
		Signaled: true,
		Local:    rdma.Segment{MR: pool.mr, Offset: pool.off(buf), Length: length},
	}
	if st.cfg.Transport == TransportOneSided {
		rkeys := st.rkeysR
		if isS {
			rkeys = st.rkeysS
		}
		wr.Op = rdma.OpWrite
		wr.Remote = rdma.RemoteSegment{
			RKey:   uint32(rkeys[owner]),
			Offset: int(*remoteCur) * st.width,
		}
		*remoteCur += int64(tuples)
	} else {
		wr.Op = rdma.OpSend
		wr.Imm = uint32(p)
		wr.HasImm = true
		if isS {
			wr.Imm |= relationFlag
		}
	}
	// A full send queue is back-pressure, not an error: recycle a
	// completed transfer and retry, exactly like a verbs application
	// spinning on its completion queue.
	var waitStart time.Time
	for {
		err := qp.PostSend(wr)
		if err == nil {
			break
		}
		if err != rdma.ErrQPFull {
			pool.release(buf)
			return err
		}
		if pool.outstanding == 0 {
			pool.release(buf)
			return fmt.Errorf("core: send queue full with no completions outstanding")
		}
		if waitStart.IsZero() {
			waitStart = time.Now()
		}
		pool.stalls++
		pool.stallCtr.Inc()
		if pool.onStall != nil {
			pool.onStall()
		}
		if err := pool.waitOne(); err != nil {
			pool.release(buf)
			return err
		}
	}
	if !waitStart.IsZero() {
		pool.waitHist.ObserveSince(waitStart)
	}
	pool.markInflight(buf, dest)
	if tr := st.cfg.Trace; tr != nil && wr.Op == rdma.OpSend {
		// Channel semantics deliver a receive completion per message, so
		// the receiver can rendezvous this exact buffer: emit the sender
		// half of the cross-machine flow edge, keyed by the per-(thread,
		// dest) sequence (FIFO per queue pair). One-sided WRITEs bypass
		// the remote CPU — causality there rides the end-of-partition
		// notifications instead.
		seq := st.msgSeq[t][owner]
		st.msgSeq[t][owner] = seq + 1
		tr.InstantFlowOut(st.m.ID, "msg", st.sendLabels[p], st.netSpan, int64(length),
			"msg", msgFlowKey(st.m.ID, t, owner, seq))
	}
	if !st.cfg.interleaved() {
		return pool.drain()
	}
	return nil
}
