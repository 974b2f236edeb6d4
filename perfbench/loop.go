package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"time"

	"rackjoin"
	"rackjoin/internal/metrics"
	"rackjoin/internal/trace"
)

// bench holds one run's inputs, its expected result and its accounting.
type bench struct {
	o    options
	wl   workload
	cfg  rackjoin.JoinConfig
	want rackjoin.Expected

	inner, outer *rackjoin.DistributedRelation

	// rec records the benchmark's own spans around every layer call in a
	// traced run; nil otherwise (every span helper is then a no-op).
	rec *trace.Recorder
	// lastJoinTrace is the causal trace of the last traced join.
	lastJoinTrace *trace.Recorder

	attempted, failed int
}

func newBench(o options, wl workload) *bench {
	inner, outer := rackjoin.GenerateWorkload(rackjoin.WorkloadConfig{
		InnerTuples: o.sc.inner, OuterTuples: o.sc.outer, Skew: wl.skew, Seed: o.seed,
	}, machines)
	b := &bench{o: o, wl: wl, cfg: rackjoin.DefaultJoinConfig(), inner: inner, outer: outer}
	// Computed once, outside every timed region.
	b.want = rackjoin.ExpectedJoin(outer)
	if o.traced {
		b.rec = rackjoin.NewTracer()
	}
	return b
}

// span opens a benchmark span (no-op in untraced runs) and returns its
// closer.
func (b *bench) span(label string) func() {
	if b.rec == nil {
		return func() {}
	}
	_, end := b.rec.Begin(0, "bench", label, 0)
	return func() { end(0) }
}

func (b *bench) newCluster() (*rackjoin.Cluster, error) {
	defer b.span("cluster.New")()
	return rackjoin.NewThrottledCluster(machines, cores, b.wl.throttle)
}

// join runs one join and checks it against ExpectedJoin. It returns the
// wall time around rackjoin.Join. A failed or wrong join is counted, never
// retried.
func (b *bench) join(c *rackjoin.Cluster, cfg rackjoin.JoinConfig) (*rackjoin.JoinResult, time.Duration, bool) {
	b.attempted++
	end := b.span("core.Join")
	start := time.Now()
	res, err := rackjoin.Join(c, b.inner, b.outer, cfg)
	wall := time.Since(start)
	end()
	if err != nil {
		b.failed++
		fmt.Fprintln(os.Stderr, "perfbench: join failed:", err)
		return nil, wall, false
	}
	end = b.span("verify")
	ok := b.check("rackjoin.Join", res.Matches, res.Checksum)
	end()
	return res, wall, ok
}

// check counts a wrong join result as failed and reports whether the
// result matched ExpectedJoin.
func (b *bench) check(what string, matches, checksum uint64) bool {
	if matches == b.want.Matches && checksum == b.want.Checksum {
		return true
	}
	b.failed++
	fmt.Fprintf(os.Stderr, "perfbench: %s: wrong result: %d matches, checksum %d; want %d, %d\n",
		what, matches, checksum, b.want.Matches, b.want.Checksum)
	return false
}

// loop is what one run measured.
type loop struct {
	setupS, newClusterMs []float64

	// joinMs are the timed untraced joins, tracedMs the timed traced ones
	// (traced runs alternate the two); results belong to joinMs.
	joinMs, tracedMs []float64
	results          []*rackjoin.JoinResult
	// critPathMs sums, per phase, the critical-path time of the traced
	// joins; the "link" entry holds the cross-machine gaps (message
	// transfers, readiness edges) the path waited on.
	critPathMs map[string]float64

	// Memory and GC over the timed joins. liveBase is the live heap just
	// before the resident cluster was built, liveAfter after the run.
	before, after       runtime.MemStats
	liveBase, liveAfter uint64

	// Registry snapshots around the timed joins and the goroutine count
	// before the first cluster and after the last one closed.
	regBefore, regAfter []metrics.Sample
	goroutinesDelta     int
}

func (l *loop) joins() int { return len(l.joinMs) + len(l.tracedMs) }

// measure times set-up on fresh clusters, then runs the timed joins on the
// last one, which stays resident for the whole run.
func (b *bench) measure() (*loop, error) {
	l := &loop{critPathMs: map[string]float64{}}
	goroutines := runtime.NumGoroutine()
	var c *rackjoin.Cluster
	for i := 0; i < b.o.sc.setups; i++ {
		if c != nil {
			c.Close()
			c = nil
		}
		// Return freed pages to the OS so every sample pays the same cold
		// page faults a fresh process would.
		debug.FreeOSMemory()
		var mem runtime.MemStats
		runtime.ReadMemStats(&mem)
		l.liveBase = mem.HeapAlloc
		start := time.Now()
		var err error
		if c, err = b.newCluster(); err != nil {
			return nil, err
		}
		l.newClusterMs = append(l.newClusterMs, ms(time.Since(start)))
		if _, _, ok := b.join(c, b.cfg); !ok {
			continue
		}
		l.setupS = append(l.setupS, time.Since(start).Seconds())
	}
	for i := 0; i < b.o.sc.warmups; i++ {
		b.join(c, b.cfg)
	}

	runtime.GC()
	runtime.ReadMemStats(&l.before)
	l.regBefore = c.Metrics().Snapshot()
	budget := time.Duration(b.o.seconds * float64(time.Second))
	start := time.Now()
	for l.joins() < b.o.sc.maxJoins && time.Since(start) < budget {
		if b.o.traced && l.joins()%2 == 1 {
			b.tracedJoin(c, l)
			continue
		}
		res, wall, ok := b.join(c, b.cfg)
		if ok {
			l.joinMs = append(l.joinMs, ms(wall))
			l.results = append(l.results, res)
		}
	}
	runtime.ReadMemStats(&l.after)
	l.regAfter = c.Metrics().Snapshot()
	runtime.GC()
	var mem runtime.MemStats
	runtime.ReadMemStats(&mem)
	l.liveAfter = mem.HeapAlloc

	c.Close()
	l.goroutinesDelta = settledGoroutines(goroutines) - goroutines
	if len(l.joinMs) == 0 {
		return nil, fmt.Errorf("no join succeeded")
	}
	return l, nil
}

// tracedJoin runs one join with JoinConfig.Trace set and adds its
// critical-path split by phase to l.
func (b *bench) tracedJoin(c *rackjoin.Cluster, l *loop) {
	cfg := b.cfg
	cfg.Trace = rackjoin.NewTracer()
	_, wall, ok := b.join(c, cfg)
	if !ok {
		return
	}
	l.tracedMs = append(l.tracedMs, ms(wall))
	b.lastJoinTrace = cfg.Trace
	cp, err := cfg.Trace.CriticalPath()
	if err != nil {
		return
	}
	for p, d := range cp.ByPhase {
		l.critPathMs[p] += ms(d)
	}
	for _, d := range cp.ByLink {
		l.critPathMs["link"] += ms(d)
	}
}

// settledGoroutines waits up to a second for the goroutine count to fall
// back to want and returns the last count seen.
func settledGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(10 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// endToEndMetrics derives the metrics a user of the join sees.
func (l *loop) endToEndMetrics(b *bench, m metricSet) {
	n := float64(l.joins())
	var wall float64
	for _, d := range l.joinMs {
		wall += d
	}
	m.set("join_ms.p50", median(l.joinMs), "ms")
	m.set("join_ms.p90", quantile(l.joinMs, 0.9), "ms")
	m.set("mtuples_per_s", float64(b.inner.Len()+b.outer.Len())*float64(len(l.joinMs))/(wall/1e3)/1e6, "Mtuples/s")
	m.set("setup_s", median(l.setupS), "s")
	m.set("alloc_mb_per_join", float64(l.after.TotalAlloc-l.before.TotalAlloc)/1e6/n, "MB")
	m.set("retained_mb_per_join", (float64(l.liveAfter)-float64(l.liveBase))/1e6/n, "MB")
}
