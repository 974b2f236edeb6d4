package core

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/datagen"
	"rackjoin/internal/fabric"
	"rackjoin/internal/metrics"
	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// allTransports is every exec-engine transport.
var allTransports = []Transport{
	TransportTwoSided, TransportOneSided, TransportOneSidedAtomic,
	TransportOneSidedRead, TransportStream, TransportTCP,
}

// pinnedPages sums the rdma_pages_pinned gauges of every device in reg.
func pinnedPages(reg *metrics.Registry) float64 {
	var sum float64
	for _, s := range reg.Snapshot() {
		if s.Name == "rdma_pages_pinned" {
			sum += s.Value
		}
	}
	return sum
}

// settleGoroutines waits up to two seconds for the goroutine count to
// fall to want and returns the last count seen.
func settleGoroutines(want int) int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); n > want && time.Now().Before(deadline); {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}

// stableGoroutines waits (up to two seconds) until the goroutine count
// holds still for 50ms and returns it.
func stableGoroutines() int {
	n := runtime.NumGoroutine()
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); {
		time.Sleep(50 * time.Millisecond)
		m := runtime.NumGoroutine()
		if m == n {
			break
		}
		n = m
	}
	return n
}

// joinOn runs one verified join of dcfg's workload on c.
func joinOn(t *testing.T, c *cluster.Cluster, dcfg datagen.Config, cfg Config) *Result {
	t.Helper()
	nm := c.NumMachines()
	w := datagen.Generate(dcfg)
	res, err := Run(c, relation.Fragment(w.Inner, nm), relation.Fragment(w.Outer, nm), cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkResult(t, res, datagen.ExpectedJoin(w.Outer))
	return res
}

// TestSteadyStateResources runs five joins on one cluster per transport:
// the first builds the machines' arenas, every later one must register
// nothing, pin no further pages and leave no goroutine behind; Close
// must unpin everything the cluster ever pinned, control channels
// included.
func TestSteadyStateResources(t *testing.T) {
	for _, tr := range allTransports {
		t.Run(tr.String(), func(t *testing.T) {
			reg := metrics.NewRegistry()
			basePinned := pinnedPages(reg)
			baseG := stableGoroutines() // earlier subtests' clusters may still be winding down
			c, err := cluster.New(cluster.Config{Machines: 3, CoresPerMachine: 3, Fabric: fabric.Config{Metrics: reg}})
			if err != nil {
				t.Fatal(err)
			}
			cfg := DefaultConfig()
			cfg.Transport = tr
			var pinned float64
			var joinG int
			for j := 0; j < 5; j++ {
				res := joinOn(t, c, smallWorkload, cfg)
				if j == 0 {
					if res.Net.Registrations == 0 {
						t.Fatal("first join registered nothing: the arena was not built")
					}
					// The fabric's delivery lanes start with the first
					// join and live as long as the cluster.
					pinned, joinG = pinnedPages(reg), stableGoroutines()
					continue
				}
				g := settleGoroutines(joinG)
				if res.Net.Registrations != 0 || res.Net.PagesRegistered != 0 {
					t.Fatalf("join %d registered %d regions (%d pages) on a warm arena",
						j+1, res.Net.Registrations, res.Net.PagesRegistered)
				}
				if p := pinnedPages(reg); p != pinned {
					t.Fatalf("join %d: %v pages pinned, want the first join's %v", j+1, p, pinned)
				}
				if g > joinG {
					t.Fatalf("join %d: %d goroutines after the join, want %d", j+1, g, joinG)
				}
			}
			c.Close()
			if p := pinnedPages(reg); p != basePinned {
				t.Fatalf("%v pages still pinned after Close, want %v", p, basePinned)
			}
			if g := settleGoroutines(baseG); g > baseG {
				t.Fatalf("%d goroutines after Close, want %d", g, baseG)
			}
		})
	}
}

// TestStaleMemoryDifferential reuses one cluster for a larger join, a
// smaller join of different data, and a larger join again: the arena is
// never cleared, so any byte a join reads without having written it (a
// short slab fill, a stale cursor, a ring payload read past its
// completion length, a reused partition or hash-table buffer) surfaces
// as a result differing from ExpectedJoin. The second larger join has
// its own seed: had it repeated the first one's data, every byte past
// the smaller join's footprint would still hold exactly what it must
// write there, and a skipped write would go unnoticed. Every transport,
// barrier and pipelined, skew engine off and splitting.
func TestStaleMemoryDifferential(t *testing.T) {
	large := datagen.Config{InnerTuples: 1 << 12, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 7}
	small := datagen.Config{InnerTuples: 1 << 10, OuterTuples: 1 << 13, Skew: datagen.SkewHigh, Seed: 8}
	largeAgain := large
	largeAgain.Seed = 9
	for _, tr := range allTransports {
		for _, pipelined := range []bool{false, true} {
			for _, mode := range []SkewMode{SkewOff, SkewSplit} {
				name := fmt.Sprintf("%v/pipelined=%v/%v", tr, pipelined, mode)
				t.Run(name, func(t *testing.T) {
					c, err := cluster.New(cluster.Config{Machines: 3, CoresPerMachine: 3})
					if err != nil {
						t.Fatal(err)
					}
					defer c.Close()
					cfg := DefaultConfig()
					cfg.Transport = tr
					cfg.Pipeline = pipelined
					cfg.Skew = mode
					for _, dcfg := range []datagen.Config{large, small, largeAgain} {
						res := joinOn(t, c, dcfg, cfg)
						if mode == SkewSplit && tr != TransportOneSidedRead && len(res.Skew.SplitPartitions) == 0 {
							t.Fatal("skew engine split nothing: the split paths went untested")
						}
					}
				})
			}
		}
	}
}

// TestConcurrentJoinsSerialized calls Join from two goroutines on one
// cluster: the arena lease serializes them, and both must return the
// exact result (run under -race by `make race`).
func TestConcurrentJoinsSerialized(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 3, CoresPerMachine: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	workloads := []datagen.Config{
		smallWorkload,
		{InnerTuples: 1 << 11, OuterTuples: 1 << 14, Skew: datagen.SkewHigh, Seed: 3},
	}
	errs := make([]error, len(workloads))
	var wg sync.WaitGroup
	for i, dcfg := range workloads {
		wg.Add(1)
		go func(i int, dcfg datagen.Config) {
			defer wg.Done()
			w := datagen.Generate(dcfg)
			want := datagen.ExpectedJoin(w.Outer)
			for j := 0; j < 3; j++ {
				res, err := Run(c, relation.Fragment(w.Inner, 3), relation.Fragment(w.Outer, 3), DefaultConfig())
				if err != nil {
					errs[i] = err
					return
				}
				if res.Matches != want.Matches || res.Checksum != want.Checksum {
					errs[i] = fmt.Errorf("join %d of workload %d: %d/%d, want %d/%d",
						j, i, res.Matches, res.Checksum, want.Matches, want.Checksum)
					return
				}
			}
		}(i, dcfg)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// TestSkewSplitScratchReuse is the torture test of the reused local-pass
// scratch: with a low split threshold (and, in the engine mode, a low
// mid-run split floor) every hot sub-partition fans out into subtasks
// holding views into their parent's scratch set and shared hash table,
// while the parent worker moves on to its next partition. A worker that
// recycled a set before its subtasks ran would overwrite tuples they
// still read — a wrong result, and under -race a reported race. Many
// joins on one cluster keep the sets cycling.
func TestSkewSplitScratchReuse(t *testing.T) {
	old := splitMinTuples
	splitMinTuples = 64
	defer func() { splitMinTuples = old }()

	c, err := cluster.New(cluster.Config{Machines: 2, CoresPerMachine: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	workloads := []datagen.Config{
		{InnerTuples: 1 << 11, OuterTuples: 1 << 15, Skew: datagen.SkewHigh, Seed: 11},
		{InnerTuples: 1 << 10, OuterTuples: 1 << 14, Skew: datagen.SkewHigh, Seed: 12},
	}
	var splits uint64
	for round := 0; round < 3; round++ {
		for _, pipelined := range []bool{false, true} {
			for _, dcfg := range workloads {
				// Paper-style range splitting: pre-chunked subtasks.
				cfg := DefaultConfig()
				cfg.Pipeline = pipelined
				cfg.SkewSplitFactor = 0.5
				joinOn(t, c, dcfg, cfg)
				// Skew engine: mid-run splittable probe ranges.
				cfg = DefaultConfig()
				cfg.Pipeline = pipelined
				cfg.Skew = SkewSplit
				splits += joinOn(t, c, dcfg, cfg).Skew.TaskSplits
			}
		}
	}
	t.Logf("mid-run task splits: %d", splits)
}

// TestScratchSetReferences pins the scratch-set discipline: a set held
// by a pending subtask is never handed out again, and it is reused once
// the last reference is released.
func TestScratchSetReferences(t *testing.T) {
	var ws workerScratch
	a := ws.acquire()
	a.hold() // a queued subtask
	a.release()
	b := ws.acquire()
	if b == a {
		t.Fatal("acquire handed out a set a pending subtask still reads")
	}
	a.release() // the subtask ran
	b.release()
	if got := ws.acquire(); got != a {
		t.Fatal("a released set was not reused")
	}
	if len(ws.sets) != 2 {
		t.Fatalf("worker grew %d sets, want 2 (the high-water mark)", len(ws.sets))
	}
}

// TestArenaRelationCapped: a relation carved from a region larger than
// the join needs (the high-water mark of an earlier, larger join) ends at
// the join's own tuples, so slicing past them panics instead of reading
// the earlier join's stale tail.
func TestArenaRelationCapped(t *testing.T) {
	c, err := cluster.New(cluster.Config{Machines: 1, CoresPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	l := c.Lease()
	defer l.Release(false)
	st := &machineState{arena: l.Arena(0), width: 16}
	_, big, err := st.arenaRelation(regionSlabR, 1000, rdma.AccessLocalWrite)
	if err != nil {
		t.Fatal(err)
	}
	rel, mr, err := st.arenaRelation(regionSlabR, 10, rdma.AccessLocalWrite)
	if err != nil || mr != big {
		t.Fatalf("shrunken slab did not reuse the high-water region: %v", err)
	}
	if rel.Len() != 10 || cap(rel.Bytes()) != 10*16 {
		t.Fatalf("slab of %d tuples has len %d, cap %d bytes", 10, rel.Len(), cap(rel.Bytes()))
	}
	defer func() {
		if recover() == nil {
			t.Fatal("slicing a shrunken slab past its length did not panic")
		}
	}()
	rel.Slice(0, 11)
}
