package cluster

import (
	"errors"
	"fmt"
	"sync"

	"rackjoin/internal/rdma"
	"rackjoin/internal/relation"
)

// ErrClosed is returned by arena calls after Cluster.Close.
var ErrClosed = errors.New("cluster: closed")

// Arena is one machine's resident registered memory (the paper's pool of
// "preallocated and preregistered" buffers, Section 4.2). The arena owns
// the bytes; a join leases the arena (Cluster.Lease) and holds references
// to its regions only for the lease's duration.
//
// A region is named by its role (destination slab, send pool, receive
// rings, ...) and sized to the high-water mark of the joins that used it:
// Region re-registers only when a request exceeds the current size or asks
// for access flags the registration lacks. A steady workload therefore
// registers nothing after its first join.
//
// Region bytes are handed out as they are: never zeroed on reuse. Every
// consumer writes a byte before reading it (DESIGN.md, "Resident
// registered memory"), so clearing would be pure overhead.
type Arena struct {
	pd *rdma.ProtectionDomain

	// Scratch is the machine's unregistered per-machine CPU scratch (the
	// local pass's partition outputs and hash tables), owned by the join
	// engine and kept across joins. It is only read or set under a lease,
	// and, being plain heap memory, lives as long as the Cluster value.
	Scratch any

	mu      sync.Mutex
	closed  bool
	regions map[string]*rdma.MemoryRegion
}

func newArena(pd *rdma.ProtectionDomain) *Arena {
	return &Arena{pd: pd, regions: make(map[string]*rdma.MemoryRegion)}
}

// Region returns the region named key: a registered, cache-line-aligned
// memory region of at least n bytes carrying at least the given access
// flags. The first n bytes are the caller's for the lease; their contents
// are whatever the previous lease left there. n == 0 returns nil.
func (a *Arena) Region(key string, n int, access rdma.Access) (*rdma.MemoryRegion, error) {
	if n == 0 {
		return nil, nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil, ErrClosed
	}
	mr := a.regions[key]
	if mr != nil && mr.Len() >= n && mr.Access()&access == access {
		return mr, nil
	}
	if mr != nil {
		// Grow (or widen the access of) the region: the old registration
		// is released, so pinned pages track the high-water mark only.
		access |= mr.Access()
		if n < mr.Len() {
			n = mr.Len()
		}
		if err := mr.Deregister(); err != nil {
			return nil, fmt.Errorf("arena region %q: %w", key, err)
		}
		delete(a.regions, key)
	}
	mr, err := a.pd.RegisterMemory(relation.AlignedBytes(n), access)
	if err != nil {
		return nil, fmt.Errorf("arena region %q: %w", key, err)
	}
	a.regions[key] = mr
	return mr, nil
}

// release deregisters every region. With close set the arena also refuses
// further use; otherwise the next lease re-registers on demand.
func (a *Arena) release(close bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	for key, mr := range a.regions {
		_ = mr.Deregister() // only fails if already deregistered
		delete(a.regions, key)
	}
	if close {
		a.closed = true
	}
}

// Lease is exclusive use of every machine's arena for one join. Joins on
// one cluster are serialized by it: the control-plane collectives are not
// multiplexed, so two joins could not overlap anyway.
type Lease struct {
	c *Cluster
}

// Lease blocks until no other lease is held and returns one.
func (c *Cluster) Lease() *Lease {
	c.leaseMu.Lock()
	return &Lease{c: c}
}

// Arena returns machine m's arena.
func (l *Lease) Arena(m int) *Arena { return l.c.machines[m].arena }

// Release returns the arenas to the cluster. A failed join may leave
// transfers in flight toward its regions, so failed drops every
// registration: late writes then fail against a deregistered region
// instead of landing in the next join's slabs.
func (l *Lease) Release(failed bool) {
	if failed {
		for _, m := range l.c.machines {
			m.arena.release(false)
		}
	}
	l.c.leaseMu.Unlock()
}
