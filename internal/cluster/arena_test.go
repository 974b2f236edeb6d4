package cluster

import (
	"errors"
	"sync"
	"testing"
	"time"

	"rackjoin/internal/rdma"
)

// TestArenaRegionHighWater: a region re-registers only past its
// high-water mark or to widen its access, and a smaller request reuses
// the larger registration.
func TestArenaRegionHighWater(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	dev := c.Machine(0).Dev
	l := c.Lease()
	defer l.Release(false)
	a := l.Arena(0)
	regs := func() uint64 { return dev.Stats().Registrations }
	base := regs()

	mr, err := a.Region("slab", 10000, rdma.AccessLocalWrite)
	if err != nil || mr.Len() < 10000 {
		t.Fatalf("first region: %v len %d", err, mr.Len())
	}
	for _, n := range []int{10000, 64, 9999} {
		again, err := a.Region("slab", n, rdma.AccessLocalWrite)
		if err != nil || again != mr {
			t.Fatalf("request of %d bytes re-registered below the high-water mark", n)
		}
	}
	if got := regs() - base; got != 1 {
		t.Fatalf("%d registrations, want 1", got)
	}
	grown, err := a.Region("slab", 20000, rdma.AccessLocalWrite)
	if err != nil || grown == mr || grown.Len() < 20000 {
		t.Fatalf("growth past the high-water mark: %v", err)
	}
	widened, err := a.Region("slab", 100, rdma.AccessRemoteWrite)
	if err != nil || widened == grown || widened.Len() < 20000 ||
		widened.Access() != rdma.AccessLocalWrite|rdma.AccessRemoteWrite {
		t.Fatalf("access widening must keep the size and union the flags: %v", err)
	}
	if s := dev.Stats(); s.Deregistrations != 2 || s.Registrations-base != 3 {
		t.Fatalf("stats %+v: want each replaced registration released", s)
	}
	if mr, err := a.Region("empty", 0, 0); mr != nil || err != nil {
		t.Fatal("a zero-byte region must be nil")
	}
}

// TestArenaReleaseAndClose: a failed lease drops every registration (the
// next use re-registers), and Close unpins arenas and control channels
// alike, after which the arena refuses use.
func TestArenaReleaseAndClose(t *testing.T) {
	c, err := New(Config{Machines: 2, CoresPerMachine: 1})
	if err != nil {
		t.Fatal(err)
	}
	dev := c.Machine(1).Dev
	ctlPinned := dev.Stats().PagesPinned
	if ctlPinned == 0 {
		t.Fatal("control channels pinned nothing")
	}
	l := c.Lease()
	if _, err := l.Arena(1).Region("slab", 1<<20, rdma.AccessLocalWrite); err != nil {
		t.Fatal(err)
	}
	if dev.Stats().PagesPinned == ctlPinned {
		t.Fatal("arena region pinned nothing")
	}
	l.Release(true)
	if got := dev.Stats().PagesPinned; got != ctlPinned {
		t.Fatalf("failed lease left %d pages pinned, want %d", got, ctlPinned)
	}

	l = c.Lease()
	if _, err := l.Arena(1).Region("slab", 1<<20, rdma.AccessLocalWrite); err != nil {
		t.Fatal(err)
	}
	l.Release(false)
	c.Close()
	c.Close() // idempotent
	for _, m := range c.Machines() {
		if p := m.Dev.Stats().PagesPinned; p != 0 {
			t.Fatalf("machine %d: %d pages pinned after Close", m.ID, p)
		}
	}
	l = c.Lease()
	defer l.Release(false)
	if _, err := l.Arena(0).Region("slab", 64, 0); !errors.Is(err, ErrClosed) {
		t.Fatalf("region after Close: %v, want ErrClosed", err)
	}
}

// TestLeaseSerializes: a second Lease blocks until the first is released.
func TestLeaseSerializes(t *testing.T) {
	c := newTestCluster(t, 1, 1)
	first := c.Lease()
	var mu sync.Mutex
	released := false
	done := make(chan struct{})
	go func() {
		defer close(done)
		l := c.Lease()
		mu.Lock()
		ok := released
		mu.Unlock()
		if !ok {
			t.Error("second lease granted while the first was held")
		}
		l.Release(false)
	}()
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	released = true
	mu.Unlock()
	first.Release(false)
	<-done
}
