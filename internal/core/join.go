package core

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/metrics"
	"rackjoin/internal/netsched"
	"rackjoin/internal/phase"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
	"rackjoin/internal/skew"
	"rackjoin/internal/tcpnet"
	"rackjoin/internal/trace"
)

// Run executes the distributed radix hash join of inner ⋈ outer over the
// given cluster. inner.Chunks[m] and outer.Chunks[m] are the tuples
// resident on machine m before the join (the data loading of Section
// 6.1.1). Run blocks until all machines finish and returns the combined
// result.
func Run(c *cluster.Cluster, inner, outer *relation.Distributed, cfg Config) (*Result, error) {
	nm := c.NumMachines()
	if len(inner.Chunks) != nm || len(outer.Chunks) != nm {
		return nil, fmt.Errorf("core: relations fragmented over %d/%d chunks, cluster has %d machines",
			len(inner.Chunks), len(outer.Chunks), nm)
	}
	width := inner.Width()
	if width == 0 {
		width = outer.Width()
	}
	if width == 0 {
		width = relation.Width16
	}
	if outer.Width() != 0 && inner.Width() != 0 && outer.Width() != inner.Width() {
		return nil, fmt.Errorf("core: tuple width mismatch %d vs %d", inner.Width(), outer.Width())
	}
	cores := c.Config().CoresPerMachine
	if err := cfg.validate(nm, cores, width); err != nil {
		return nil, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = c.Metrics()
	}

	// Every registered byte of the join comes from the machines' resident
	// arenas, leased until Run returns. A failed join drops the
	// registrations (transfers may still be in flight toward them).
	lease := c.Lease()
	failed := true
	defer func() { lease.Release(failed) }()

	states := make([]*machineState, nm)
	for m := 0; m < nm; m++ {
		states[m] = newMachineState(c.Machine(m), lease.Arena(m), &cfg, nm, width, inner.Chunks[m], outer.Chunks[m])
	}
	before := deviceTotals(c)
	mesh, err := wireDataPlane(c, states)
	if err != nil {
		return nil, err
	}
	if mesh != nil {
		defer mesh.Close()
	}
	if cfg.Flight != nil {
		// Mirror every verb posting into the flight rings for the run's
		// duration; the hook is removed before Run returns so later joins
		// on the same cluster start clean.
		c.InstallVerbHook(func(machine int, op string, bytes int) {
			cfg.Flight.Note(machine, "verb", op, 0, int64(bytes))
		})
		defer c.InstallVerbHook(nil)
		// Surface ring overwrites as flightrec_dropped_total{machine}.
		cfg.Flight.AttachMetrics(cfg.Metrics)
	}

	errs := make([]error, nm)
	var wg sync.WaitGroup
	for m := 0; m < nm; m++ {
		wg.Add(1)
		go func(m int) {
			defer wg.Done()
			errs[m] = states[m].run()
		}(m)
	}
	wg.Wait()
	for m, err := range errs {
		if err != nil {
			// Stamp the failure into the flight rings so a post-mortem dump
			// ends with the abort and the events leading up to it.
			cfg.Flight.Note(m, "abort", err.Error(), 0, 0)
			return nil, fmt.Errorf("core: machine %d: %w", m, err)
		}
	}
	failed = false
	res := assembleResult(c, states, before)
	if cfg.OnComplete != nil {
		cfg.OnComplete(res)
	}
	return res, nil
}

// machineState is the per-machine execution context of one join.
type machineState struct {
	cfg   *Config
	m     *cluster.Machine
	arena *cluster.Arena // leased for the join; owns every registered byte
	nm    int
	np    int // 2^NetworkBits
	width int
	R, S  *relation.Relation

	// partThreads is the number of cores partitioning during the network
	// pass; with channel semantics one core is the network thread.
	partThreads int

	// Histogram phase outputs.
	threadHistR, threadHistS [][]int64 // [thread][partition]
	allHistR, allHistS       [][]uint64
	globalR, globalS         []int64
	owner                    []int  // -1 for broadcast partitions
	broadcast                []bool // partitions processed by every machine
	owned                    []int  // partitions with owner == this machine
	resident                 []int  // owned ∪ broadcast: processed here
	// slabOffR/S[m][p]: tuple offset of partition p within machine m's
	// slab, or -1 when p is not resident on m. Identical on all machines
	// by construction. A broadcast partition holds the full inner
	// relation replica but only the machine's local outer share.
	slabOffR, slabOffS       [][]int64
	slabTuplesR, slabTuplesS int64 // this machine's slab sizes
	slabR, slabS             *relation.Relation
	mrR, mrS                 *rdma.MemoryRegion
	mrCur                    *rdma.MemoryRegion // append cursors (atomic-append)
	rkeysR, rkeysS           []uint64           // per owner machine (one-sided)
	rkeysCur                 []uint64           // cursor region rkeys (atomic-append)

	// Data plane.
	sendCQ  []*rdma.CompletionQueue // per partitioning thread
	qps     [][]*rdma.QP            // [thread][peer machine]
	pools   []*bufferPool           // per partitioning thread
	threads []*threadState          // per partitioning thread, reused across slices
	recvCQ  *rdma.CompletionQueue
	rings   map[uint32]*recvRing // by local QPN
	// TCP data plane (TransportTCP only).
	tcp      *tcpnet.Endpoint
	tcpBytes atomic.Uint64
	tcpMsgs  atomic.Uint64

	// Pull transport staging (TransportOneSidedRead only).
	stageR, stageS           *relation.Relation
	stageMRR, stageMRS       *rdma.MemoryRegion
	stageOffR, stageOffS     []int64
	stageRkeysR, stageRkeysS []uint64

	// Result plane (ResultTarget ≥ 0 only).
	resCQ     []*rdma.CompletionQueue // per worker (senders)
	resQP     []*rdma.QP              // per worker (senders)
	resRecvCQ *rdma.CompletionQueue   // target side
	resRings  map[uint32]*recvRing    // target side

	phases     phase.Times
	matches    uint64
	checksum   uint64
	poolStalls uint64
	resultMu   sync.Mutex

	// pipe is the partition-ready pipeline of the overlapped netpass/local
	// window; nil in barrier mode. overlap is how long join work ran while
	// the network pass was still draining.
	pipe    *pipeline
	overlap time.Duration

	// Causal-trace identity: runSpan is this machine's root span, netSpan
	// the open network-partition phase span (parents the per-buffer send
	// instants); msgSeq[t][dest] numbers the data messages of each
	// (sender thread, destination) queue pair so the receiver's per-ring
	// counter can rendezvous the matching flow edge (per-QP FIFO order).
	runSpan trace.SpanID
	netSpan trace.SpanID
	msgSeq  [][]uint64
	// Per-partition span labels, precomputed so the per-message stamps in
	// the scatter and receive loops never format strings: those loops sit
	// inside the buffer-credit cycle, where added latency amplifies into
	// sender stalls.
	sendLabels, recvLabels, readyLabels []string

	// netSched is the communication scheduler of the network pass (nil
	// when unscheduled); netBudget holds the adaptive per-destination
	// transfer budgets; parkCap bounds each thread's parked backlog.
	netSched  *netsched.Scheduler
	netBudget *netsched.AdaptiveSizer
	parkCap   int
	// netsched telemetry (resolved at setup, nil when unscheduled).
	schedRounds, schedIdle, schedParks *metrics.Counter
	schedOverrides, budgetWaits        *metrics.Counter

	// met is this machine's metrics scope (label machine=<id>); shipped
	// holds the per-partition bytes-shipped counters of the network pass,
	// nil for partitions that never leave this machine.
	met     *metrics.Scope
	shipped []*metrics.Counter
	// linkBytes holds the per-destination netpass_link_bytes_total
	// counters (nil entry for this machine itself), the per-link volume
	// the health plane's online engine folds into its bandwidth
	// indicators; nil on single-machine and pull-transport runs.
	linkBytes []*metrics.Counter
	// netKernelBytes is the netpass kernel_bytes_total counter, resolved
	// once at pool setup so scatterSlice's hot loop skips the registry.
	netKernelBytes *metrics.Counter

	// Skew engine (skew.go). skewMode is the run's effective mode (split
	// degrades to detect on one machine and on the pull transport);
	// sketch is this machine's merged heavy-hitter sketch from the
	// histogram scan; split[p] marks split-and-replicate partitions (nil
	// when none). splitNext deals a split partition's outer tuples
	// round-robin across destinations; splitLocalCur hands out slab
	// offsets for the self-dealt share; splitRemoteCur reserves exact
	// one-sided write offsets per (partition, destination).
	skewMode       SkewMode
	sketch         *skew.Sketch
	skewStats      SkewStats
	split          []bool
	splitNext      []atomic.Int64
	splitLocalCur  []atomic.Int64
	splitRemoteCur [][]atomic.Int64
	skewRepl       []*metrics.Counter
	skewReplBytes  atomic.Uint64
}

func newMachineState(m *cluster.Machine, arena *cluster.Arena, cfg *Config, nm, width int, r, s *relation.Relation) *machineState {
	st := &machineState{
		cfg: cfg, m: m, arena: arena, nm: nm, np: 1 << cfg.NetworkBits, width: width,
		R: r, S: s,
		rings:    make(map[uint32]*recvRing),
		resRings: make(map[uint32]*recvRing),
	}
	st.partThreads = m.Cores
	if nm > 1 && cfg.usesNetworkThread() {
		st.partThreads = m.Cores - 1
	}
	if cfg.Trace != nil {
		st.msgSeq = make([][]uint64, st.partThreads)
		for t := range st.msgSeq {
			st.msgSeq[t] = make([]uint64, nm)
		}
		st.sendLabels = make([]string, st.np)
		st.recvLabels = make([]string, st.np)
		st.readyLabels = make([]string, st.np)
		for p := 0; p < st.np; p++ {
			st.sendLabels[p] = "send p" + strconv.Itoa(p)
			st.recvLabels[p] = "recv p" + strconv.Itoa(p)
			st.readyLabels[p] = "ready p" + strconv.Itoa(p)
		}
	}
	st.met = cfg.Metrics.Scope(metrics.L("machine", strconv.Itoa(m.ID)))
	st.skewMode = cfg.skewMode(nm)
	st.resetScratch()
	return st
}

// Packed rendezvous keys for the trace's integer-keyed flow fast path
// (trace.FlowOutKey/FlowInKey): the hot per-message stamps must not
// format string keys. The top tag bits keep the classes' key spaces
// disjoint, mirroring the class prefix of the string-keyed API.
// msgFlowKey identifies one data message by (source machine, sender
// thread, destination, per-QP sequence); machines and threads fit 8
// bits, the sequence keeps 38.
func msgFlowKey(src, thread, dst int, seq uint64) uint64 {
	return 1<<62 | uint64(src)<<54 | uint64(thread)<<46 | uint64(dst)<<38 | (seq & (1<<38 - 1))
}

// readyFlowKey identifies one partition-readiness edge on a machine.
func readyFlowKey(machine, p int) uint64 {
	return 2<<62 | uint64(machine)<<38 | uint64(p)
}

// eopFlowKey identifies the end-of-partition notification of one
// (sender, receiver) machine pair.
func eopFlowKey(src, dst int) uint64 {
	return 3<<62 | uint64(src)<<46 | uint64(dst)<<38
}

// begin opens a causal trace span for this machine if tracing is enabled;
// the returned closer is nil-safe like trace.Recorder.Begin's.
func (st *machineState) begin(kind, label string, parent trace.SpanID) (trace.SpanID, func(int64)) {
	if st.cfg.Trace == nil {
		return 0, func(int64) {}
	}
	return st.cfg.Trace.Begin(st.m.ID, kind, label, parent)
}

// span starts a phase span under this machine's run root. Kept as the
// phase-level shorthand; callers that need the span's identity (to parent
// message instants) use begin directly.
func (st *machineState) span(label string) func(int64) {
	_, end := st.begin("phase", label, st.runSpan)
	return end
}

// flight records one flight-recorder event for this machine (nil-safe).
func (st *machineState) flight(kind, detail string, p int, bytes int64) {
	st.cfg.Flight.Note(st.m.ID, kind, detail, p, bytes)
}

// barrier runs a labelled cluster barrier wrapped in a "barrier" trace
// span: the critical-path analyzer groups same-label barrier spans across
// machines and attributes the wait to the last arriver.
func (st *machineState) barrier(label string) error {
	_, end := st.begin("barrier", label, st.runSpan)
	err := st.m.Barrier()
	end(0)
	return err
}

// run executes the four phases on this machine. It is the "machine main"
// goroutine; worker goroutines are spawned per phase.
func (st *machineState) run() error {
	start := time.Now()
	var endRun func(int64)
	st.runSpan, endRun = st.begin("run", "run", 0)
	defer endRun(0)
	// Every early error return below closes the open phase span first:
	// a dangling span leaves unbalanced begin events in the trace export.
	// Phase-start breadcrumbs in the flight recorder anchor a post-mortem
	// dump: even when a run dies before any verb is posted (e.g. in the
	// first control-plane exchange), the dump shows where it was.
	st.flight("phase", "histogram start", 0, 0)
	endSpan := st.span("histogram")
	st.computeThreadHistograms()
	if err := st.exchangeHistograms(); err != nil {
		endSpan(0)
		return fmt.Errorf("histogram exchange: %w", err)
	}
	st.computeAssignment()
	if err := st.allocRegions(); err != nil {
		endSpan(0)
		return fmt.Errorf("region allocation: %w", err)
	}
	if err := st.exchangeRKeys(); err != nil {
		endSpan(0)
		return fmt.Errorf("rkey exchange: %w", err)
	}
	if err := st.allocPools(); err != nil {
		endSpan(0)
		return fmt.Errorf("buffer pools: %w", err)
	}
	if err := st.postReceiveRings(); err != nil {
		endSpan(0)
		return fmt.Errorf("receive rings: %w", err)
	}
	if err := st.barrier("after histogram"); err != nil {
		endSpan(0)
		return err
	}
	st.phases.Histogram = time.Since(start)
	st.phaseDone("histogram", st.phases.Histogram)
	endSpan(int64(st.R.Size() + st.S.Size()))

	if st.cfg.pipelined() {
		// Pipelined mode: no barrier between the network pass and the
		// local/build-probe phase — partitions are joined as they complete.
		if err := st.runPipelined(); err != nil {
			return fmt.Errorf("pipelined execution: %w", err)
		}
		return nil
	}

	start = time.Now()
	st.flight("phase", "network partition start", 0, 0)
	var netEnd func(int64)
	st.netSpan, netEnd = st.begin("phase", "network partition", st.runSpan)
	if err := st.networkPartitionPass(); err != nil {
		netEnd(0)
		return fmt.Errorf("network partitioning: %w", err)
	}
	netEnd(int64(st.tcpBytes.Load()))
	if err := st.barrier("after network partition"); err != nil {
		return err
	}
	st.phases.NetworkPartition = time.Since(start)
	st.phaseDone("network_partition", st.phases.NetworkPartition)

	st.flight("phase", "local+build-probe start", 0, 0)
	endSpan = st.span("local+build-probe")
	if err := st.localPassAndBuildProbe(); err != nil {
		endSpan(0)
		return fmt.Errorf("local pass: %w", err)
	}
	endSpan(int64(st.slabR.Size() + st.slabS.Size()))
	st.phaseDone("local_partition", st.phases.LocalPartition)
	st.phaseDone("build_probe", st.phases.BuildProbe)
	return st.barrier("final")
}

// phaseDone exports one finished phase as a phase_seconds{machine,phase}
// gauge — set from the same value Result reports in PerMachine — and
// fires the Config.OnPhase hook. Called as each phase completes, so the
// breakdown is observable mid-run.
func (st *machineState) phaseDone(name string, d time.Duration) {
	st.met.Gauge("phase_seconds", metrics.L("phase", name)).Set(d.Seconds())
	if st.cfg.OnPhase != nil {
		st.cfg.OnPhase(st.m.ID, name, d)
	}
}

// computeThreadHistograms scans this machine's chunks with partThreads
// workers, each histogramming a contiguous slice (the same slices the
// network pass will scatter).
func (st *machineState) computeThreadHistograms() {
	st.threadHistR = parallelHist(st.R, st.partThreads, st.cfg.NetworkBits)
	if st.skewMode == SkewOff {
		st.threadHistS = parallelHist(st.S, st.partThreads, st.cfg.NetworkBits)
		return
	}
	// Skew detection rides the outer-relation scan: each thread feeds a
	// space-saving sketch from the same loop that histograms its slice,
	// so heavy-hitter detection costs no extra pass over the data.
	st.threadHistS, st.sketch = parallelHistSketch(st.S, st.partThreads,
		st.cfg.NetworkBits, sketchCapacity(st.cfg.skewThresholdFrac()))
}

func parallelHist(rel *relation.Relation, threads int, bits uint) [][]int64 {
	hists := make([][]int64, threads)
	var wg sync.WaitGroup
	n := rel.Len()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := make([]int64, 1<<bits)
			radix.AddHistogram(h, rel.Slice(n*t/threads, n*(t+1)/threads), 0, bits)
			hists[t] = h
		}(t)
	}
	wg.Wait()
	return hists
}

// parallelHistSketch is parallelHist fused with per-thread space-saving
// sketches: one loop computes the same histogram AddHistogram would
// (shift 0, low `bits` bits) and observes every key. The per-thread
// sketches are merged in thread order — deterministic, so re-running the
// same chunk yields the same machine sketch.
func parallelHistSketch(rel *relation.Relation, threads int, bits uint, capacity int) ([][]int64, *skew.Sketch) {
	hists := make([][]int64, threads)
	sketches := make([]*skew.Sketch, threads)
	var wg sync.WaitGroup
	n := rel.Len()
	for t := 0; t < threads; t++ {
		wg.Add(1)
		go func(t int) {
			defer wg.Done()
			h := make([]int64, 1<<bits)
			sk := skew.New(capacity)
			sl := rel.Slice(n*t/threads, n*(t+1)/threads)
			mask := uint64(1<<bits - 1)
			for i, m := 0, sl.Len(); i < m; i++ {
				k := sl.Key(i)
				h[k&mask]++
				sk.Observe(k)
			}
			hists[t] = h
			sketches[t] = sk
		}(t)
	}
	wg.Wait()
	merged := sketches[0]
	for _, sk := range sketches[1:] {
		merged.Merge(sk)
	}
	return hists, merged
}

// exchangeHistograms combines thread histograms into the machine-level
// histogram, all-gathers machine histograms over the control plane and
// derives the global histogram (Section 4.1).
func (st *machineState) exchangeHistograms() error {
	machineR := sumHists(st.threadHistR, st.np)
	machineS := sumHists(st.threadHistS, st.np)
	vec := make([]uint64, 2*st.np)
	for p := 0; p < st.np; p++ {
		vec[p] = uint64(machineR[p])
		vec[st.np+p] = uint64(machineS[p])
	}
	if st.sketch != nil {
		// Piggyback the encoded heavy-hitter sketch on the histogram
		// all-gather: skew detection adds no control-plane round.
		enc := make([]uint64, skew.EncodedLen(st.sketch.Capacity()))
		st.sketch.Encode(enc)
		vec = append(vec, enc...)
	}
	var all [][]uint64
	var err error
	if st.cfg.Exchange == ExchangeCoordinator {
		all, err = st.m.GatherBroadcastUint64(0, vec)
	} else {
		all, err = st.m.AllGatherUint64(vec)
	}
	if err != nil {
		return err
	}
	st.allHistR = make([][]uint64, st.nm)
	st.allHistS = make([][]uint64, st.nm)
	st.globalR = make([]int64, st.np)
	st.globalS = make([]int64, st.np)
	blocks := make([][]uint64, 0, st.nm)
	for m, v := range all {
		if len(v) < 2*st.np {
			return fmt.Errorf("histogram vector from machine %d has %d entries, want at least %d", m, len(v), 2*st.np)
		}
		st.allHistR[m] = v[:st.np]
		st.allHistS[m] = v[st.np : 2*st.np]
		for p := 0; p < st.np; p++ {
			st.globalR[p] += int64(v[p])
			st.globalS[p] += int64(v[st.np+p])
		}
		if len(v) > 2*st.np {
			blocks = append(blocks, v[2*st.np:])
		}
	}
	if st.skewMode != SkewOff {
		st.deriveSkew(blocks)
	}
	return nil
}

func sumHists(hists [][]int64, np int) []int64 {
	out := make([]int64, np)
	for _, h := range hists {
		for p, c := range h {
			out[p] += c
		}
	}
	return out
}

// computeAssignment derives the partition→machine assignment from the
// global histogram. All machines compute it identically.
func (st *machineState) computeAssignment() {
	st.owner = make([]int, st.np)
	switch st.cfg.Assignment {
	case AssignSizeSorted:
		// Sort partitions by total element count descending (ties by id)
		// and deal round-robin so the largest partitions spread out.
		idx := make([]int, st.np)
		for p := range idx {
			idx[p] = p
		}
		sort.SliceStable(idx, func(a, b int) bool {
			ca := st.globalR[idx[a]] + st.globalS[idx[a]]
			cb := st.globalR[idx[b]] + st.globalS[idx[b]]
			if ca != cb {
				return ca > cb
			}
			return idx[a] < idx[b]
		})
		for i, p := range idx {
			st.owner[p] = i % st.nm
		}
	default: // AssignRoundRobin
		for p := 0; p < st.np; p++ {
			st.owner[p] = p % st.nm
		}
	}
	// Inter-machine work sharing (Sections 6.5/8, selective broadcast):
	// a partition is broadcast when its outer side dominates the average
	// partition AND replicating the inner side to every machine is
	// cheaper than shipping the outer side to one (|S_p| > N_M·|R_p|).
	st.broadcast = make([]bool, st.np)
	if st.cfg.BroadcastFactor > 0 && st.nm > 1 {
		var totalS int64
		for _, c := range st.globalS {
			totalS += c
		}
		avgPart := float64(totalS) / float64(st.np)
		for p := 0; p < st.np; p++ {
			if float64(st.globalS[p]) > st.cfg.BroadcastFactor*avgPart &&
				st.globalS[p] > int64(st.nm)*st.globalR[p] {
				st.broadcast[p] = true
				st.owner[p] = -1
			}
		}
	}
	// Split-and-replicate (skew engine): a split partition is a broadcast
	// partition for the inner side — the full replica machinery below and
	// in the network pass applies unchanged — while its outer side is
	// dealt round-robin across all machines instead of staying put.
	if st.split != nil {
		for p := 0; p < st.np; p++ {
			if st.split[p] {
				st.broadcast[p] = true
				st.owner[p] = -1
			}
		}
	}
	// Per-machine slab layouts, identical on every machine: resident
	// partitions in ascending order.
	st.slabOffR = make([][]int64, st.nm)
	st.slabOffS = make([][]int64, st.nm)
	for m := 0; m < st.nm; m++ {
		offR, offS := int64(0), int64(0)
		sr := make([]int64, st.np)
		ss := make([]int64, st.np)
		for p := 0; p < st.np; p++ {
			sr[p], ss[p] = -1, -1
			switch {
			case st.owner[p] == m:
				sr[p], ss[p] = offR, offS
				offR += st.globalR[p]
				offS += st.globalS[p]
			case st.broadcast[p]:
				sr[p], ss[p] = offR, offS
				offR += st.globalR[p] // full inner replica
				if st.isSplit(p) {
					offS += st.splitRecvTotal(p, m) // dealt outer share
				} else {
					offS += int64(st.allHistS[m][p]) // local outer share stays put
				}
			}
		}
		st.slabOffR[m] = sr
		st.slabOffS[m] = ss
		if m == st.m.ID {
			st.slabTuplesR, st.slabTuplesS = offR, offS
		}
	}
	// Split-partition write cursors, now that slab offsets are known.
	// splitLocalCur hands out this machine's self-dealt outer writes: the
	// self share leads the slab region on append-style transports; exact
	// one-sided placement puts it at this machine's per-source sub-region.
	// splitRemoteCur pre-reserves exact one-sided offsets per destination.
	if st.split != nil {
		for _, p := range st.skewStats.SplitPartitions {
			base := st.slabOffS[st.m.ID][p]
			if st.cfg.Transport == TransportOneSided {
				base += st.splitSrcBase(st.m.ID, p, st.m.ID)
				cur := make([]atomic.Int64, st.nm)
				for d := 0; d < st.nm; d++ {
					cur[d].Store(st.slabOffS[d][p] + st.splitSrcBase(st.m.ID, p, d))
				}
				st.splitRemoteCur[p] = cur
			}
			st.splitLocalCur[p].Store(base)
		}
	}
	for p := 0; p < st.np; p++ {
		if st.owner[p] == st.m.ID {
			st.owned = append(st.owned, p)
		}
		if st.owner[p] == st.m.ID || st.broadcast[p] {
			st.resident = append(st.resident, p)
		}
	}
}

// residentHere reports whether this machine processes partition p.
func (st *machineState) residentHere(p int) bool {
	return st.owner[p] == st.m.ID || st.broadcast[p]
}

// Arena region names: one resident registered region per role and
// machine, sized to the high-water mark of the joins that used it.
const (
	regionSlabR       = "core.slab.R"
	regionSlabS       = "core.slab.S"
	regionCursors     = "core.cursors"
	regionSendPools   = "core.send.pools"
	regionAtomicPads  = "core.send.atomic"
	regionRecvRings   = "core.recv.rings"
	regionStageR      = "core.stage.R"
	regionStageS      = "core.stage.S"
	regionResultPools = "core.result.pools"
	regionResultRings = "core.result.rings"
)

// allocRegions carves the destination slabs that receive this machine's
// assigned partitions out of its arena. Sizes are exact thanks to the
// histogram phase — which is also why the slabs need no zeroing: the
// scatter, the receive loops and the remote writes together fill every
// tuple slot before the local pass reads one. With one-sided transport
// the slabs are exposed for remote writes.
func (st *machineState) allocRegions() error {
	access := rdma.AccessLocalWrite
	if st.cfg.Transport == TransportOneSided || st.cfg.Transport == TransportOneSidedAtomic {
		access |= rdma.AccessRemoteWrite
	}
	var err error
	if st.slabR, st.mrR, err = st.arenaRelation(regionSlabR, st.slabTuplesR, access); err != nil {
		return err
	}
	if st.slabS, st.mrS, err = st.arenaRelation(regionSlabS, st.slabTuplesS, access); err != nil {
		return err
	}
	if st.cfg.Transport == TransportOneSidedAtomic {
		// Append cursors, one 8-byte word per (partition, relation),
		// initialised past the local share; remote senders fetch-and-add
		// to reserve their write ranges. Remote atomics read-modify-write
		// these words, so unlike every other arena region the cursors are
		// cleared and rewritten on every join.
		n := st.np * 2 * 8
		if st.mrCur, err = st.arena.Region(regionCursors, n, rdma.AccessLocalWrite|rdma.AccessRemoteAtomic); err != nil {
			return err
		}
		cur := st.mrCur.Bytes()[:n]
		clear(cur)
		for _, p := range st.resident {
			putCursor(cur, p, false, int64(st.allHistR[st.m.ID][p]))
			if st.isSplit(p) {
				// Split partitions lead with the self-dealt share, not the
				// whole local share: the rest is dealt to other machines.
				putCursor(cur, p, true, st.splitShare(st.m.ID, p, st.m.ID))
			} else {
				putCursor(cur, p, true, int64(st.allHistS[st.m.ID][p]))
			}
		}
	}
	return nil
}

// arenaRelation returns an n-tuple relation over the arena region key
// (nil region for an empty relation). Arena regions are cache-line
// aligned: partition boundaries land on line starts for the paper's
// power-of-two widths, so the scatter kernels never split a tuple store
// across lines.
func (st *machineState) arenaRelation(key string, n int64, access rdma.Access) (*relation.Relation, *rdma.MemoryRegion, error) {
	size := int(n) * st.width
	mr, err := st.arena.Region(key, size, access)
	if err != nil || mr == nil {
		return relation.New(st.width, 0), nil, err
	}
	// Cap the view at this join's size: the region may be larger (its size
	// is the high-water mark), and a slice past the join's tuples must
	// panic rather than read a previous join's stale tail.
	rel, err := relation.View(st.width, mr.Bytes()[:size:size])
	return rel, mr, err
}

// cursorOffset returns the byte offset of partition p's append cursor
// within the cursor memory region.
func cursorOffset(p int, isS bool) int {
	i := p * 2
	if isS {
		i++
	}
	return i * 8
}

func putCursor(buf []byte, p int, isS bool, v int64) {
	off := cursorOffset(p, isS)
	for i := 0; i < 8; i++ {
		buf[off+i] = byte(uint64(v) >> (8 * i))
	}
}

// exchangeRKeys advertises the slab (and, for atomic-append, cursor)
// remote keys for one-sided access.
func (st *machineState) exchangeRKeys() error {
	oneSided := st.cfg.Transport == TransportOneSided || st.cfg.Transport == TransportOneSidedAtomic
	if !oneSided || st.nm == 1 {
		return nil
	}
	vec := make([]uint64, 3)
	if st.mrR != nil {
		vec[0] = uint64(st.mrR.RKey())
	}
	if st.mrS != nil {
		vec[1] = uint64(st.mrS.RKey())
	}
	if st.mrCur != nil {
		vec[2] = uint64(st.mrCur.RKey())
	}
	all, err := st.m.AllGatherUint64(vec)
	if err != nil {
		return err
	}
	st.rkeysR = make([]uint64, st.nm)
	st.rkeysS = make([]uint64, st.nm)
	st.rkeysCur = make([]uint64, st.nm)
	for m, v := range all {
		st.rkeysR[m] = v[0]
		st.rkeysS[m] = v[1]
		st.rkeysCur[m] = v[2]
	}
	return nil
}

// threadPrefix returns Σ_{t'<t} hist[t'][p]: the tuple offset of thread
// t's contribution within this machine's share of partition p.
func threadPrefix(hists [][]int64, t, p int) int64 {
	var sum int64
	for i := 0; i < t; i++ {
		sum += hists[i][p]
	}
	return sum
}

// machinePrefix returns Σ_{m'<m} allHist[m'][p]: machine m's tuple offset
// within partition p under one-sided exact placement.
func machinePrefix(all [][]uint64, m, p int) int64 {
	var sum int64
	for i := 0; i < m; i++ {
		sum += int64(all[i][p])
	}
	return sum
}

// localWriteBase returns the slab tuple offset at which this machine's own
// threads write their local share of owned partition p. Exact-offset
// one-sided mode interleaves with remote machines' histogram-derived
// offsets; all append-style transports (channel semantics, TCP,
// atomic-append) put the local share first and remote data behind it.
func (st *machineState) localWriteBase(p int, isS bool) int64 {
	slabOff := st.slabOffR[st.m.ID][p]
	all := st.allHistR
	if isS {
		slabOff = st.slabOffS[st.m.ID][p]
		all = st.allHistS
	}
	if isS && st.broadcast[p] {
		// Broadcast partitions keep only the local outer share: it is
		// the whole region, regardless of transport.
		return slabOff
	}
	if st.cfg.Transport == TransportOneSided {
		return slabOff + machinePrefix(all, st.m.ID, p)
	}
	return slabOff
}

// wireDataPlane creates the data plane: per-(sender thread, destination
// machine) queue pairs plus the receive rings of channel-semantics
// transports, or — for TransportTCP — a real loopback TCP mesh. Connection
// setup is excluded from phase timings, like the paper's experiments.
func wireDataPlane(c *cluster.Cluster, states []*machineState) (*tcpnet.Mesh, error) {
	nm := len(states)
	rings := make([]ringCarver, nm)
	for i, st := range states {
		st.sendCQ = make([]*rdma.CompletionQueue, st.partThreads)
		for t := range st.sendCQ {
			st.sendCQ[t] = st.m.Dev.NewCQ()
		}
		st.recvCQ = st.m.Dev.NewCQ()
		st.qps = make([][]*rdma.QP, st.partThreads)
		for t := range st.qps {
			st.qps[t] = make([]*rdma.QP, nm)
		}
		if nm > 1 && st.cfg.usesNetworkThread() && st.cfg.Transport != TransportTCP {
			// One ring per incoming (peer, sender thread) queue pair; every
			// machine runs the same number of partitioning threads.
			var err error
			if rings[i], err = newRingCarver(st.arena, regionRecvRings, (nm-1)*st.partThreads, st.cfg.BufferSize); err != nil {
				return nil, err
			}
		}
	}
	if states[0].cfg.ResultSink != nil && states[0].cfg.ResultTarget >= 0 {
		if err := wireResultPlane(states); err != nil {
			return nil, err
		}
	}
	if nm == 1 {
		return nil, nil
	}
	if states[0].cfg.Transport == TransportTCP {
		mesh, err := tcpnet.NewMesh(nm, states[0].partThreads)
		if err != nil {
			return nil, err
		}
		for _, st := range states {
			st.tcp = mesh.Endpoint(st.m.ID)
		}
		return mesh, nil
	}
	for a := 0; a < nm; a++ {
		sa := states[a]
		for t := 0; t < sa.partThreads; t++ {
			for b := 0; b < nm; b++ {
				if b == a {
					continue
				}
				sb := states[b]
				depth := sa.cfg.QPDepth
				if depth == 0 {
					depth = rdma.DefaultQueueDepth
				}
				qpS, qpR, err := c.ConnectQPs(a, b,
					rdma.QPConfig{SendCQ: sa.sendCQ[t], RecvCQ: sa.recvCQ, Depth: depth},
					rdma.QPConfig{SendCQ: sb.recvCQ, RecvCQ: sb.recvCQ, Depth: depth})
				if err != nil {
					return nil, err
				}
				sa.qps[t][b] = qpS
				if sa.cfg.usesNetworkThread() {
					ring, err := rings[b].next(qpR)
					if err != nil {
						return nil, err
					}
					// Per-QP FIFO: messages from (machine a, thread t)
					// arrive on this ring in posting order, so a per-ring
					// counter reconstructs the sender's message sequence
					// for the causal flow edges.
					ring.src, ring.srcThread = a, t
					sb.rings[qpR.QPN()] = ring
				}
			}
		}
	}
	return nil, nil
}

func deviceTotals(c *cluster.Cluster) (s rdma.DeviceStats) {
	for _, m := range c.Machines() {
		d := m.Dev.Stats()
		s.BytesSent += d.BytesSent
		s.Sends += d.Sends
		s.Writes += d.Writes
		s.Registrations += d.Registrations
		s.PagesRegistered += d.PagesRegistered
	}
	return s
}

func assembleResult(c *cluster.Cluster, states []*machineState, before rdma.DeviceStats) *Result {
	res := &Result{
		PerMachine:           make([]phase.Times, len(states)),
		PartitionsPerMachine: make([]int, len(states)),
		PipelineOverlap:      make([]time.Duration, len(states)),
	}
	for i, st := range states {
		res.Matches += st.matches
		res.Checksum += st.checksum
		res.PerMachine[i] = st.phases
		res.PartitionsPerMachine[i] = len(st.resident)
		res.PipelineOverlap[i] = st.overlap
		res.Net.PoolStalls += st.poolStalls
		if st.phases.Histogram > res.Phases.Histogram {
			res.Phases.Histogram = st.phases.Histogram
		}
		if st.phases.NetworkPartition > res.Phases.NetworkPartition {
			res.Phases.NetworkPartition = st.phases.NetworkPartition
		}
		if st.phases.LocalPartition > res.Phases.LocalPartition {
			res.Phases.LocalPartition = st.phases.LocalPartition
		}
		if st.phases.BuildProbe > res.Phases.BuildProbe {
			res.Phases.BuildProbe = st.phases.BuildProbe
		}
	}
	// Skew engine outcome: the detector output is identical on every
	// machine (derived from the same merged sketch), so machine 0 speaks
	// for all; the traffic and task-split tallies are summed.
	res.Skew.Mode = states[0].skewMode
	res.Skew.HeavyHitters = states[0].skewStats.HeavyHitters
	res.Skew.SplitPartitions = states[0].skewStats.SplitPartitions
	for _, st := range states {
		res.Skew.ReplicatedBytes += st.skewReplBytes.Load()
		res.Skew.TaskSplits += st.skewStats.TaskSplits
	}
	after := deviceTotals(c)
	res.Net.BytesSent = after.BytesSent - before.BytesSent
	res.Net.Messages = (after.Sends + after.Writes) - (before.Sends + before.Writes)
	res.Net.Registrations = after.Registrations - before.Registrations
	res.Net.PagesRegistered = after.PagesRegistered - before.PagesRegistered
	for _, st := range states {
		res.Net.BytesSent += st.tcpBytes.Load()
		res.Net.Messages += st.tcpMsgs.Load()
	}
	return res
}
