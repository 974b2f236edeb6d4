package core

import (
	"fmt"
	"strconv"
	"sync"
	"time"

	"rackjoin/internal/metrics"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// TransportOneSidedRead is the pull counterpart of the paper's push
// designs (Section 3.2.2 describes both one-sided directions: "data is
// directly written into or read from a specified RDMA-enabled buffer
// without any interaction from the remote host"): every machine first
// partitions its whole input into a locally staged, RDMA-readable region;
// after a barrier, each partition's owner pulls the remote pieces with
// one-sided READs directly into its destination region.
//
// Pulling cannot interleave partitioning with communication — the stage
// must complete before any byte can move — so it behaves like the
// non-interleaved ablation plus an extra materialisation, which is why
// the paper's sender-push design wins; the abl-pull experiment
// quantifies it.
const TransportOneSidedRead Transport = 8

// pullChunk is the READ granularity: large enough to amortise the
// round-trip, bounded so several reads pipeline per queue pair.
func (st *machineState) pullChunkTuples() int {
	c := st.cfg.BufferSize / st.width
	if c < 1 {
		c = 1
	}
	return c
}

// stageLocal partitions this machine's input into the staging slabs
// (step 1 of the pull pass). Thread write offsets come from the same
// per-thread histograms the push transports use.
func (st *machineState) stageLocal() error {
	machineHistR := sumHists(st.threadHistR, st.np)
	machineHistS := sumHists(st.threadHistS, st.np)
	offR, totalR := radix.PrefixSum(machineHistR)
	offS, totalS := radix.PrefixSum(machineHistS)
	st.stageOffR, st.stageOffS = offR, offS
	// The staging slabs are histogram-exact, so the scatter below writes
	// every byte a peer may read.
	var err error
	if st.stageR, st.stageMRR, err = st.arenaRelation(regionStageR, totalR, rdma.AccessRemoteRead); err != nil {
		return err
	}
	if st.stageS, st.stageMRS, err = st.arenaRelation(regionStageS, totalS, rdma.AccessRemoteRead); err != nil {
		return err
	}

	var wg sync.WaitGroup
	scatter := func(t int, rel, stage *relation.Relation, hists [][]int64, off []int64) {
		defer wg.Done()
		cursors := make([]int64, st.np)
		for p := 0; p < st.np; p++ {
			cursors[p] = off[p] + threadPrefix(hists, t, p)
		}
		n := rel.Len()
		radix.Scatter(rel.Slice(n*t/st.partThreads, n*(t+1)/st.partThreads), stage, cursors, 0, st.cfg.NetworkBits)
	}
	for t := 0; t < st.partThreads; t++ {
		wg.Add(2)
		go scatter(t, st.R, st.stageR, st.threadHistR, offR)
		go scatter(t, st.S, st.stageS, st.threadHistS, offS)
	}
	wg.Wait()
	return nil
}

// exchangeStageRKeys advertises the staging region keys.
func (st *machineState) exchangeStageRKeys() error {
	if st.nm == 1 {
		return nil
	}
	vec := make([]uint64, 2)
	if st.stageMRR != nil {
		vec[0] = uint64(st.stageMRR.RKey())
	}
	if st.stageMRS != nil {
		vec[1] = uint64(st.stageMRS.RKey())
	}
	all, err := st.m.AllGatherUint64(vec)
	if err != nil {
		return err
	}
	st.stageRkeysR = make([]uint64, st.nm)
	st.stageRkeysS = make([]uint64, st.nm)
	for m, v := range all {
		st.stageRkeysR[m] = v[0]
		st.stageRkeysS[m] = v[1]
	}
	return nil
}

// senderStageOffset returns the tuple offset of partition p within sender
// m's staging slab, derived from the exchanged machine histograms.
func senderStageOffset(all [][]uint64, m, p int) int64 {
	var off int64
	for q := 0; q < p; q++ {
		off += int64(all[m][q])
	}
	return off
}

// pullStats is one pull worker's stall accounting, mirroring the push
// side's bufferPool counters: a stall is a READ issue that had to wait on
// a completion because the outstanding window was full.
type pullStats struct {
	stalls   uint64
	stallCtr *metrics.Counter
	waitHist *metrics.Histogram
}

func (st *machineState) newPullStats(core int) *pullStats {
	ts := st.met.With(metrics.L("thread", strconv.Itoa(core)))
	return &pullStats{
		stallCtr: ts.Counter("netpass_buffer_stalls_total"),
		waitHist: ts.Histogram("netpass_buffer_wait_seconds"),
	}
}

// pullNetworkPass runs the read-based network pass: stage, barrier, pull.
func (st *machineState) pullNetworkPass() error {
	if err := st.stageLocal(); err != nil {
		return err
	}
	if err := st.exchangeStageRKeys(); err != nil {
		return err
	}
	// All senders must finish staging before anyone reads.
	if err := st.m.Barrier(); err != nil {
		return err
	}

	// Copy the local shares into the destination slabs (append layout:
	// local first) and pull the remote shares. Work is distributed over
	// the resident partitions round-robin across all cores.
	type task struct{ p int }
	tasks := make(chan task)
	errs := make([]error, st.m.Cores)
	stats := make([]*pullStats, st.m.Cores)
	var wg sync.WaitGroup
	for c := 0; c < st.m.Cores; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			stats[c] = st.newPullStats(c)
			for tk := range tasks {
				if err := st.pullPartition(c, stats[c], tk.p); err != nil {
					errs[c] = err
					return
				}
			}
		}(c)
	}
	for _, p := range st.resident {
		tasks <- task{p}
	}
	close(tasks)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	// Fold worker stalls into the machine total, like the push path does
	// for its pools, so Result.Net.PoolStalls covers every transport.
	for _, ps := range stats {
		if ps != nil {
			st.poolStalls += ps.stalls
		}
	}
	return nil
}

// pullPartition assembles owned partition p: memcpy of the local staged
// share, then chunked one-sided READs of every remote share.
func (st *machineState) pullPartition(core int, ps *pullStats, p int) error {
	w := int64(st.width)
	for _, rel := range []bool{false, true} {
		slab, mr := st.slabR, st.mrR
		stage, stageOff := st.stageR, st.stageOffR
		all := st.allHistR
		rkeys := st.stageRkeysR
		slabOff := st.slabOffR[st.m.ID][p]
		if rel {
			slab, mr = st.slabS, st.mrS
			stage, stageOff = st.stageS, st.stageOffS
			all = st.allHistS
			rkeys = st.stageRkeysS
			slabOff = st.slabOffS[st.m.ID][p]
		}
		// Local share: staged → destination, a plain copy.
		selfTuples := int64(all[st.m.ID][p])
		cursor := slabOff * w
		copy(slab.Bytes()[cursor:], stage.Bytes()[stageOff[p]*w:(stageOff[p]+selfTuples)*w])
		cursor += selfTuples * w

		// Remote shares: chunked READs, pipelined per sender.
		for m := 0; m < st.nm; m++ {
			if m == st.m.ID {
				continue
			}
			tuples := int64(all[m][p])
			if tuples == 0 {
				continue
			}
			qp := st.qps[core%st.partThreads][m]
			cq := st.sendCQ[core%st.partThreads]
			remoteOff := senderStageOffset(all, m, p) * w
			chunk := int64(st.pullChunkTuples())
			outstanding := 0
			for done := int64(0); done < tuples; done += chunk {
				n := chunk
				if done+n > tuples {
					n = tuples - done
				}
				err := qp.PostSend(rdma.SendWR{
					Op: rdma.OpRead, Signaled: true,
					Local:  rdma.Segment{MR: mr, Offset: int(cursor), Length: int(n * w)},
					Remote: rdma.RemoteSegment{RKey: uint32(rkeys[m]), Offset: int(remoteOff + done*w)},
				})
				if err != nil {
					return err
				}
				cursor += n * w
				outstanding++
				if outstanding >= st.cfg.BuffersPerPartition {
					// Window full: this wait is back-pressure, the pull
					// counterpart of a push-side pool stall. The final
					// drain below is not — it ends the transfer, it does
					// not delay one.
					ps.stalls++
					ps.stallCtr.Inc()
					waitStart := time.Now()
					if c := cq.Wait(); c.Err() != nil {
						return c.Err()
					}
					ps.waitHist.ObserveSince(waitStart)
					outstanding--
				}
			}
			for ; outstanding > 0; outstanding-- {
				if c := cq.Wait(); c.Err() != nil {
					return c.Err()
				}
			}
		}
	}
	return nil
}

// validatePull checks pull-mode preconditions (called from validate).
func validatePull(cfg *Config, cores int) error {
	if cfg.BroadcastFactor > 0 {
		return fmt.Errorf("core: work sharing is not supported by the pull transport")
	}
	_ = cores
	return nil
}
