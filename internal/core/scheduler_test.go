package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// runSchedWorkers drives the scheduler with n bare workers (no machine
// state needed — tasks under test ignore their worker argument except for
// its deque id) and returns once every worker exited.
func runSchedWorkers(s *scheduler, n int) {
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			w := &joinWorker{id: i, sched: s}
			for {
				task, ok := s.next(w.id)
				if !ok {
					return
				}
				task(w)
				s.done()
			}
		}(i)
	}
	wg.Wait()
}

// TestSchedulerDrainsRecursiveSplits is the skew-split shape: every root
// pushes a tree of children from whichever worker runs it. Run with -race
// this doubles as the scheduler's memory-model torture test.
func TestSchedulerDrainsRecursiveSplits(t *testing.T) {
	const (
		workers  = 8
		roots    = 100
		fanout   = 10
		depthMax = 2 // roots → fanout children → fanout² grandchildren
	)
	s := newScheduler(workers)
	var ran atomic.Int64
	var split func(depth int) schedTask
	split = func(depth int) schedTask {
		return func(w *joinWorker) {
			ran.Add(1)
			if depth >= depthMax {
				return
			}
			for i := 0; i < fanout; i++ {
				w.push(split(depth + 1))
			}
		}
	}
	s.reserve(roots)
	for i := 0; i < roots; i++ {
		s.inject(split(0))
	}
	runSchedWorkers(s, workers)

	want := int64(roots * (1 + fanout + fanout*fanout))
	if got := ran.Load(); got != want {
		t.Fatalf("ran %d tasks, want %d", got, want)
	}
	if p := s.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after drain, want 0", p)
	}
	if s.injects.Load() != roots {
		t.Fatalf("injects = %d, want %d", s.injects.Load(), roots)
	}
}

// TestSchedulerStealsFromLoadedWorker checks the work actually spreads:
// a single worker produces every child task, so any other worker that ran
// one must have stolen it (or picked up a spill).
func TestSchedulerStealsFromLoadedWorker(t *testing.T) {
	const workers = 4
	const children = 64
	s := newScheduler(workers)
	var byWorker [workers]atomic.Int64
	s.reserve(1)
	s.inject(func(w *joinWorker) {
		for i := 0; i < children; i++ {
			w.push(func(cw *joinWorker) {
				byWorker[cw.id].Add(1)
				time.Sleep(100 * time.Microsecond) // let thieves catch up
			})
		}
	})
	runSchedWorkers(s, workers)

	var total, spread int64
	for i := range byWorker {
		n := byWorker[i].Load()
		total += n
		if n > 0 {
			spread++
		}
	}
	if total != children {
		t.Fatalf("ran %d children, want %d", total, children)
	}
	if spread < 2 {
		t.Fatalf("all %d children ran on one worker; stealing never happened", children)
	}
	if s.steals.Load() == 0 && s.spills.Load() == 0 {
		t.Fatal("work spread across workers but neither steals nor spills were counted")
	}
}

// TestSchedulerSpillsOverflowToInjector pushes more children than one
// deque holds; the overflow must spill to the injector and still run
// while the second worker steals from the full deque. That worker is
// held in a gate task until the pusher's loop ends, or it could steal
// children as fast as they are pushed and the deque would never fill.
// The injector is drained before peers are stolen from, so whichever
// worker does not take the pusher takes the gate.
func TestSchedulerSpillsOverflowToInjector(t *testing.T) {
	const workers = 2
	const children = dequeCap + 50
	s := newScheduler(workers)
	var ran atomic.Int64
	pushed := make(chan struct{})
	s.reserve(2)
	s.inject(func(w *joinWorker) {
		for i := 0; i < children; i++ {
			w.push(func(*joinWorker) { ran.Add(1) })
		}
		close(pushed)
	})
	s.inject(func(*joinWorker) { <-pushed })
	runSchedWorkers(s, workers)
	if got := ran.Load(); got != children {
		t.Fatalf("ran %d children, want %d", got, children)
	}
	if s.spills.Load() == 0 {
		t.Fatalf("pushed %d children into a %d-slot deque without a recorded spill", children, dequeCap)
	}
}

// TestSchedulerInjectorRewindsAndReleasesSlots drains the injector and
// checks consumed slots are nil'd and the array rewinds, so long phases
// don't pin every consumed closure.
func TestSchedulerInjectorRewindsAndReleasesSlots(t *testing.T) {
	s := newScheduler(1)
	s.reserve(3)
	for i := 0; i < 3; i++ {
		s.inject(func(*joinWorker) {})
	}
	for i := 0; i < 2; i++ {
		task, ok := s.popInject()
		if !ok {
			t.Fatalf("popInject %d: empty", i)
		}
		task(nil)
		s.done()
		if s.injectQ[i] != nil {
			t.Fatalf("consumed injector slot %d not released", i)
		}
	}
	if _, ok := s.popInject(); !ok {
		t.Fatal("third task missing")
	}
	s.done()
	if len(s.injectQ) != 0 || s.injectHead != 0 {
		t.Fatalf("injector not rewound after drain: head=%d len=%d", s.injectHead, len(s.injectQ))
	}
}

// TestSchedulerWorkersWaitForReservedInjections is the pipeline
// termination contract: while pending > 0 (a partition-ready event is
// still owed) no worker may exit, even though every queue is empty; the
// late injection must run, and only then do workers terminate.
func TestSchedulerWorkersWaitForReservedInjections(t *testing.T) {
	const workers = 4
	s := newScheduler(workers)
	s.reserve(1)

	var exited atomic.Int32
	var ran atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for {
				task, ok := s.next(i)
				if !ok {
					exited.Add(1)
					return
				}
				task(nil)
				s.done()
			}
		}(i)
	}
	// Workers must all be parked, not exited: the reservation is pending.
	time.Sleep(20 * time.Millisecond)
	if n := exited.Load(); n != 0 {
		t.Fatalf("%d workers exited while pending > 0", n)
	}
	s.inject(func(*joinWorker) { ran.Add(1) })
	wg.Wait()
	if ran.Load() != 1 {
		t.Fatal("late injection never ran")
	}
	if exited.Load() != workers {
		t.Fatalf("exited = %d, want %d", exited.Load(), workers)
	}
}

// TestSchedulerCancelReservedReleasesWorkers: cancelling the outstanding
// reservation (an expected partition turned out empty) must let parked
// workers terminate.
func TestSchedulerCancelReservedReleasesWorkers(t *testing.T) {
	const workers = 3
	s := newScheduler(workers)
	s.reserve(2)
	s.inject(func(*joinWorker) {})

	doneCh := make(chan struct{})
	go func() {
		runSchedWorkers(s, workers)
		close(doneCh)
	}()
	time.Sleep(10 * time.Millisecond)
	select {
	case <-doneCh:
		t.Fatal("workers exited with a reservation outstanding")
	default:
	}
	s.cancelReserved(1)
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not terminate after cancelReserved")
	}
}

// TestSchedulerAbortReleasesParkedWorkers: abort must wake and terminate
// workers that are parked on an unfulfilled reservation.
func TestSchedulerAbortReleasesParkedWorkers(t *testing.T) {
	s := newScheduler(2)
	s.reserve(1) // never fulfilled
	doneCh := make(chan struct{})
	go func() {
		runSchedWorkers(s, 2)
		close(doneCh)
	}()
	time.Sleep(10 * time.Millisecond)
	s.abort()
	select {
	case <-doneCh:
	case <-time.After(5 * time.Second):
		t.Fatal("workers did not terminate after abort")
	}
}

// TestSchedulerInjectVsStealStress hammers concurrent injection (the
// pipeline's partition-ready path) against stealing workers. Counts must
// balance exactly; -race checks the synchronisation.
func TestSchedulerInjectVsStealStress(t *testing.T) {
	const (
		workers   = 8
		injectors = 4
		perInj    = 200
	)
	s := newScheduler(workers)
	var ran atomic.Int64
	s.reserve(injectors * perInj)
	var injWG sync.WaitGroup
	for i := 0; i < injectors; i++ {
		injWG.Add(1)
		go func() {
			defer injWG.Done()
			for j := 0; j < perInj; j++ {
				s.inject(func(w *joinWorker) {
					ran.Add(1)
					if w != nil && ran.Load()%7 == 0 {
						w.push(func(*joinWorker) { ran.Add(1) })
					}
				})
			}
		}()
	}
	runSchedWorkers(s, workers)
	injWG.Wait()
	if p := s.pending.Load(); p != 0 {
		t.Fatalf("pending = %d after drain, want 0", p)
	}
	if got, want := s.injects.Load(), uint64(injectors*perInj); got != want {
		t.Fatalf("injects = %d, want %d", got, want)
	}
}
