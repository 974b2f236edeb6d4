package main

import (
	"fmt"
	"runtime/debug"
	"time"

	"rackjoin"
	"rackjoin/internal/hashtable"
	"rackjoin/internal/metrics"
	"rackjoin/internal/radix"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// layerMetrics derives the per-layer metrics of a traced run from its join
// results, the registry counters around the timed joins, the runtime's GC
// statistics and the traced joins' critical paths.
func (l *loop) layerMetrics(b *bench, m metricSet) {
	n := float64(l.joins())
	per := func(f func(r *rackjoin.JoinResult) float64) float64 {
		xs := make([]float64, len(l.results))
		for i, r := range l.results {
			xs[i] = f(r)
		}
		return median(xs)
	}
	delta := func(name string) float64 { return sumSamples(l.regAfter, name) - sumSamples(l.regBefore, name) }

	m.set("cluster.new_ms", median(l.newClusterMs), "ms")
	m.set("cluster.goroutines_delta", float64(l.goroutinesDelta), "count")

	gaps := make([]float64, len(l.results))
	for i, r := range l.results {
		gaps[i] = l.joinMs[i] - ms(r.Phases.Total())
	}
	m.set("core.phase_gap_ms", median(gaps), "ms")
	m.set("core.phase.histogram_ms", per(func(r *rackjoin.JoinResult) float64 { return ms(r.Phases.Histogram) }), "ms")
	m.set("core.phase.network_ms", per(func(r *rackjoin.JoinResult) float64 { return ms(r.Phases.NetworkPartition) }), "ms")
	m.set("core.phase.local_ms", per(func(r *rackjoin.JoinResult) float64 { return ms(r.Phases.LocalPartition) }), "ms")
	m.set("core.phase.build_probe_ms", per(func(r *rackjoin.JoinResult) float64 { return ms(r.Phases.BuildProbe) }), "ms")

	m.set("core.net.registrations", per(func(r *rackjoin.JoinResult) float64 { return float64(r.Net.Registrations) }), "count")
	m.set("core.net.pool_stalls", per(func(r *rackjoin.JoinResult) float64 { return float64(r.Net.PoolStalls) }), "count")
	m.set("core.net.messages", per(func(r *rackjoin.JoinResult) float64 { return float64(r.Net.Messages) }), "count")
	m.set("core.net.mb_sent", per(func(r *rackjoin.JoinResult) float64 { return float64(r.Net.BytesSent) / 1e6 }), "MB")
	m.set("core.pipeline_overlap_ms", per(func(r *rackjoin.JoinResult) float64 {
		var longest time.Duration
		for _, o := range r.PipelineOverlap {
			longest = max(longest, o)
		}
		return ms(longest)
	}), "ms")
	m.set("core.skew.split_partitions", per(func(r *rackjoin.JoinResult) float64 { return float64(len(r.Skew.SplitPartitions)) }), "count")
	m.set("core.skew.replicated_mb", per(func(r *rackjoin.JoinResult) float64 { return float64(r.Skew.ReplicatedBytes) / 1e6 }), "MB")
	m.set("core.scheduler.steals", delta("scheduler_steals_total")/n, "count")
	m.set("core.ingress_imbalance", ingressImbalance(l.regBefore, l.regAfter), "ratio")

	m.set("rdma.pages_pinned_per_join", delta("rdma_pages_pinned")/n, "pages")
	m.set("rdma.cq_wait_ms_per_join", delta("rdma_cq_wait_seconds")*1e3/n, "ms")
	m.set("rdma.rnr_waits_per_join", delta("rdma_rnr_waits_total")/n, "count")
	m.set("fabric.link_queue_ms_per_join", delta("fabric_link_queue_seconds")*1e3/n, "ms")

	m.set("runtime.gc_cycles_per_join", float64(l.after.NumGC-l.before.NumGC)/n, "count")
	m.set("runtime.gc_pause_ms_per_join", float64(l.after.PauseTotalNs-l.before.PauseTotalNs)/1e6/n, "ms")

	m.set("trace.overhead_pct", (median(l.tracedMs)/median(l.joinMs)-1)*100, "%")
	// Critical-path split of the traced joins, per join: the histogram
	// phase, the network pass, the cross-machine waits, and everything
	// else (local pass, build-probe, barriers) as the tail.
	traced := float64(max(len(l.tracedMs), 1))
	var tail float64
	for p, d := range l.critPathMs {
		switch p {
		case "histogram", "network partition", "link":
		default:
			tail += d
		}
	}
	m.set("trace.critpath.histogram_ms", l.critPathMs["histogram"]/traced, "ms")
	m.set("trace.critpath.network_ms", l.critPathMs["network partition"]/traced, "ms")
	m.set("trace.critpath.link_ms", l.critPathMs["link"]/traced, "ms")
	m.set("trace.critpath.tail_ms", tail/traced, "ms")
	m.set("error_ratio", float64(b.failed)/float64(b.attempted), "ratio")
}

// sumSamples sums a metric over all its label sets: a counter's or gauge's
// value, a histogram's sum.
func sumSamples(ss []metrics.Sample, name string) float64 {
	var s float64
	for _, x := range ss {
		if x.Name != name {
			continue
		}
		if x.Type == metrics.KindHistogram {
			s += x.Sum
		} else {
			s += x.Value
		}
	}
	return s
}

// ingressImbalance is the largest destination's share of the network
// pass's bytes over the mean destination's: 1 is a balanced all-to-all.
func ingressImbalance(before, after []metrics.Sample) float64 {
	perDest := map[string]float64{}
	for i, ss := range [][]metrics.Sample{before, after} {
		sign := float64(2*i - 1)
		for _, x := range ss {
			if x.Name == "netpass_link_bytes_total" {
				perDest[x.Labels["dest"]] += sign * x.Value
			}
		}
	}
	var top, sum float64
	for _, v := range perDest {
		top = max(top, v)
		sum += v
	}
	if sum == 0 {
		return 0
	}
	return top / (sum / float64(len(perDest)))
}

// calibrate times the layers under the join from outside, on the
// workload's own data and fabric, and reports each probe as a rate.
func (b *bench) calibrate(m metricSet) error {
	// The closed resident cluster left gigabytes of garbage; return it
	// before the probes allocate on top of it.
	debug.FreeOSMemory()
	chunk := b.outer.Chunks[0]
	bits := b.cfg.NetworkBits
	var h []int64
	histS := b.probe("radix.Histogram", func() { h = radix.Histogram(chunk, 0, bits) })
	m.set("radix.histogram_gb_s", float64(chunk.Size())/histS/1e9, "GB/s")
	dst := relation.New(chunk.Width(), chunk.Len())
	scatterS := b.probe("radix.Scatter", func() {
		cursors, _ := radix.PrefixSum(h)
		radix.Scatter(chunk, dst, cursors, 0, bits)
	})
	m.set("radix.scatter_gb_s", float64(chunk.Size())/scatterS/1e9, "GB/s")

	inner, outer := b.inner.Gather(), b.outer.Gather()
	buildS, probeS := b.hashtableProbe(inner, outer)
	m.set("hashtable.build_mtuples_s", float64(inner.Len())/buildS/1e6, "Mtuples/s")
	m.set("hashtable.probe_mtuples_s", float64(outer.Len())/probeS/1e6, "Mtuples/s")

	mc := rackjoin.MCJoinConfig{Pass1Bits: b.cfg.NetworkBits, Pass2Bits: b.cfg.LocalBits}
	var mcErr error
	mcS := b.probe("mcjoin.RadixJoin", func() {
		b.attempted++
		res, err := rackjoin.RadixJoin(inner, outer, mc)
		if err != nil {
			b.failed++
			mcErr = err
			return
		}
		b.check("mcjoin.RadixJoin", res.Matches, res.Checksum)
	})
	if mcErr != nil {
		return fmt.Errorf("mcjoin.RadixJoin: %w", mcErr)
	}
	m.set("mcjoin.join_ms.p50", mcS*1e3, "ms")
	return b.verbsProbes(m)
}

// probe times fn for the probe budget and returns the median seconds per
// call. Calls run in batches of at least a millisecond, so that the clock
// and the span around each batch cost nothing next to a sub-microsecond
// call; sizing the batch also warms fn up.
func (b *bench) probe(label string, fn func()) float64 {
	batch := 1
	for {
		start := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		if time.Since(start) >= time.Millisecond {
			break
		}
		batch *= 2
	}
	var xs []float64
	for start := time.Now(); len(xs) < 3 || time.Since(start) < b.o.sc.probe; {
		end := b.span(label)
		t := time.Now()
		for i := 0; i < batch; i++ {
			fn()
		}
		xs = append(xs, time.Since(t).Seconds()/float64(batch))
		end()
	}
	return median(xs)
}

// hashtableProbe radix-partitions the inputs into the cache-sized
// partitions the join's two passes produce, then times hashtable.Build
// over all inner partitions and ProbeRelationBatch over all outer ones.
// It returns the median seconds of each and checks the probe's result.
func (b *bench) hashtableProbe(inner, outer *relation.Relation) (buildS, probeS float64) {
	bits := b.cfg.NetworkBits + b.cfg.LocalBits
	parts := func(rel *relation.Relation) []*relation.Relation {
		h := radix.Histogram(rel, 0, bits)
		cursors, _ := radix.PrefixSum(h)
		dst := relation.New(rel.Width(), rel.Len())
		radix.Scatter(rel, dst, cursors, 0, bits)
		bounds := radix.Bounds(h)
		out := make([]*relation.Relation, len(h))
		for p := range out {
			out[p] = radix.PartitionView(dst, bounds, p)
		}
		return out
	}
	innerParts, outerParts := parts(inner), parts(outer)
	tables := make([]*hashtable.Table, len(innerParts))
	buildS = b.probe("hashtable.Build", func() {
		for p, r := range innerParts {
			tables[p] = hashtable.Build(r)
		}
	})
	var batch hashtable.Batch
	var matches, checksum uint64
	probeS = b.probe("hashtable.ProbeRelationBatch", func() {
		matches, checksum = 0, 0
		for p, s := range outerParts {
			mt, cs := tables[p].ProbeRelationBatch(s, &batch)
			matches += mt
			checksum += cs
		}
	})
	b.attempted++
	b.check("hashtable probe", matches, checksum)
	return buildS, probeS
}

// verbsProbes times 64 KB SEND and WRITE post→completion and 1 MB memory
// registration on a 2-machine cluster with the workload's fabric.
func (b *bench) verbsProbes(m metricSet) error {
	const msg = 64 << 10
	c, err := rackjoin.NewThrottledCluster(2, 1, b.wl.throttle)
	if err != nil {
		return err
	}
	defer c.Close()
	m0, m1 := c.Machine(0), c.Machine(1)
	sendCQ, recvCQ := m0.Dev.NewCQ(), m1.Dev.NewCQ()
	qpA, qpB, err := c.ConnectQPs(0, 1,
		rdma.QPConfig{SendCQ: sendCQ, RecvCQ: m0.Dev.NewCQ()},
		rdma.QPConfig{SendCQ: m1.Dev.NewCQ(), RecvCQ: recvCQ})
	if err != nil {
		return err
	}
	src, err := m0.PD.RegisterMemory(make([]byte, msg), 0)
	if err != nil {
		return err
	}
	dst, err := m1.PD.RegisterMemory(make([]byte, msg), rdma.AccessLocalWrite|rdma.AccessRemoteWrite)
	if err != nil {
		return err
	}
	for _, p := range []struct {
		op   rdma.Opcode
		name string
	}{{rdma.OpSend, "rdma.send64k_mb_s"}, {rdma.OpWrite, "rdma.write64k_mb_s"}} {
		op := p.op
		var opErr error
		s := b.probe("rdma.PostSend "+op.String(), func() {
			wr := rdma.SendWR{Op: op, Signaled: true, Local: rdma.Segment{MR: src, Length: msg}}
			if op == rdma.OpSend {
				opErr = qpB.PostRecv(rdma.RecvWR{Local: rdma.Segment{MR: dst, Length: msg}})
			} else {
				wr.Remote = rdma.RemoteSegment{RKey: dst.RKey()}
			}
			if opErr == nil {
				opErr = qpA.PostSend(wr)
			}
			if opErr == nil {
				opErr = sendCQ.Wait().Err()
			}
			if op == rdma.OpSend && opErr == nil {
				opErr = recvCQ.Wait().Err()
			}
		})
		if opErr != nil {
			return fmt.Errorf("rdma %s: %w", op, opErr)
		}
		m.set(p.name, msg/s/1e6, "MB/s")
	}

	buf := make([]byte, 1<<20)
	var regErr error
	s := b.probe("rdma.RegisterMemory+Deregister", func() {
		mr, err := m1.PD.RegisterMemory(buf, rdma.AccessRemoteWrite)
		if err == nil {
			err = mr.Deregister()
		}
		if err != nil {
			regErr = err
		}
	})
	m.set("rdma.register_us_per_mb", s*1e6, "us/MB")
	return regErr
}
