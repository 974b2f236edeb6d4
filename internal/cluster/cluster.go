// Package cluster assembles simulated machines into a rack: each machine
// owns an RDMA device, a protection domain, a set of worker cores and a
// control-plane channel to every peer. Machines may exchange data only
// through the verbs layer — there is no shared memory between them — which
// preserves the machine boundaries the paper's algorithm is designed
// around.
//
// The control plane (small two-sided messages with pre-posted receives)
// provides the collectives the join needs: barriers and the all-gather of
// machine-level histograms (Section 4.1). The data plane is created by the
// join itself via ConnectQPs so that each worker thread can own its
// completion queues.
package cluster

import (
	"encoding/binary"
	"fmt"
	"strconv"
	"sync"

	"rackjoin/internal/fabric"
	"rackjoin/internal/metrics"
	"rackjoin/internal/rdma"
)

// Config describes the simulated rack.
type Config struct {
	// Machines is the number of nodes (paper: 2–10).
	Machines int
	// CoresPerMachine is the number of worker threads per node (paper: 4
	// or 8).
	CoresPerMachine int
	// Fabric configures optional bandwidth throttling of the interconnect.
	Fabric fabric.Config
	// CtlBufSize is the control-plane message size limit. Zero means 64 KB
	// (large enough for machine-level histograms up to 2^12 partitions).
	CtlBufSize int
	// CtlBufCount is the number of pre-posted control receives per peer.
	// Zero means 16.
	CtlBufCount int
}

const (
	defaultCtlBufSize  = 64 << 10
	defaultCtlBufCount = 16
)

// Cluster is the simulated rack.
type Cluster struct {
	cfg      Config
	net      *rdma.Network
	machines []*Machine

	// leaseMu is held by the join that leased the machines' arenas.
	leaseMu   sync.Mutex
	closeOnce sync.Once
}

// New builds the rack: devices, control-plane queue pairs and pre-posted
// receives for every ordered machine pair.
func New(cfg Config) (*Cluster, error) {
	if cfg.Machines < 1 {
		return nil, fmt.Errorf("cluster: need at least one machine, got %d", cfg.Machines)
	}
	if cfg.CoresPerMachine < 1 {
		return nil, fmt.Errorf("cluster: need at least one core per machine, got %d", cfg.CoresPerMachine)
	}
	if cfg.CtlBufSize == 0 {
		cfg.CtlBufSize = defaultCtlBufSize
	}
	if cfg.CtlBufCount == 0 {
		cfg.CtlBufCount = defaultCtlBufCount
	}
	c := &Cluster{cfg: cfg, net: rdma.NewNetwork(cfg.Fabric)}
	for i := 0; i < cfg.Machines; i++ {
		// Stamp the device's metric series with its owning machine so the
		// observability plane can join rdma_* counters against the join's
		// per-machine telemetry.
		dev := c.net.NewDeviceLabeled(metrics.L("machine", strconv.Itoa(i)))
		m := &Machine{
			ID:      i,
			cluster: c,
			Dev:     dev,
			PD:      dev.AllocPD(),
			Cores:   cfg.CoresPerMachine,
			ctl:     make(map[int]*ctlChannel),
		}
		m.arena = newArena(m.PD)
		c.machines = append(c.machines, m)
	}
	// Control plane: one QP pair per unordered machine pair.
	for i := 0; i < cfg.Machines; i++ {
		for j := i + 1; j < cfg.Machines; j++ {
			chI, chJ, err := newCtlPair(c.machines[i], c.machines[j], cfg)
			if err != nil {
				c.Close()
				return nil, err
			}
			c.machines[i].ctl[j] = chI
			c.machines[j].ctl[i] = chJ
		}
	}
	return c, nil
}

// Close drains the interconnect and unpins every registration the
// cluster made: each machine's arena and its control-channel buffers.
// Pinned pages return to their pre-New level. Close is idempotent.
func (c *Cluster) Close() {
	c.closeOnce.Do(func() {
		c.net.Close()
		for _, m := range c.machines {
			m.arena.release(true)
			for _, ch := range m.ctl {
				ch.close()
			}
		}
	})
}

// Machines returns the machines of the rack.
func (c *Cluster) Machines() []*Machine { return c.machines }

// Machine returns machine m.
func (c *Cluster) Machine(m int) *Machine { return c.machines[m] }

// NumMachines returns the rack size.
func (c *Cluster) NumMachines() int { return len(c.machines) }

// Config returns the cluster configuration.
func (c *Cluster) Config() Config { return c.cfg }

// FabricStats returns interconnect counters.
func (c *Cluster) FabricStats() fabric.Stats { return c.net.FabricStats() }

// Fabric exposes the rack's byte-moving substrate so harnesses can
// inject faults (fabric.DegradeLink, SlowMachine, DropBuffers) into a
// live cluster and validate that the health plane names the culprit.
func (c *Cluster) Fabric() *fabric.Fabric { return c.net.Fabric() }

// Metrics returns the metrics registry shared by the cluster's RDMA
// network and fabric. All device and link telemetry lands here; the join
// layer adds its own series to the same registry.
func (c *Cluster) Metrics() *metrics.Registry { return c.net.Metrics() }

// InstallVerbHook installs fn as the verb observer of every machine's
// device: it fires after each successful send-queue posting with the
// machine id, opcode name and wire size. nil uninstalls. The flight
// recorder uses this to keep a ring of the most recent verb activity.
func (c *Cluster) InstallVerbHook(fn func(machine int, op string, bytes int)) {
	for _, m := range c.machines {
		if fn == nil {
			m.Dev.SetEventHook(nil)
			continue
		}
		id := m.ID
		m.Dev.SetEventHook(func(op rdma.Opcode, bytes int) { fn(id, op.String(), bytes) })
	}
}

// ConnectQPs creates a connected queue-pair pair between machines a and b
// for the data plane. Each side gets the completion queues passed for it.
func (c *Cluster) ConnectQPs(a, b int, cfgA, cfgB rdma.QPConfig) (*rdma.QP, *rdma.QP, error) {
	qpA, err := c.machines[a].PD.CreateQP(cfgA)
	if err != nil {
		return nil, nil, err
	}
	qpB, err := c.machines[b].PD.CreateQP(cfgB)
	if err != nil {
		return nil, nil, err
	}
	if err := rdma.Connect(qpA, qpB); err != nil {
		return nil, nil, err
	}
	return qpA, qpB, nil
}

// RunAll runs fn on every core of every machine and waits for completion.
func (c *Cluster) RunAll(fn func(m *Machine, core int)) {
	var wg sync.WaitGroup
	for _, m := range c.machines {
		for core := 0; core < m.Cores; core++ {
			wg.Add(1)
			go func(m *Machine, core int) {
				defer wg.Done()
				fn(m, core)
			}(m, core)
		}
	}
	wg.Wait()
}

// RunPerMachine runs fn once per machine concurrently and waits.
func (c *Cluster) RunPerMachine(fn func(m *Machine)) {
	var wg sync.WaitGroup
	for _, m := range c.machines {
		wg.Add(1)
		go func(m *Machine) {
			defer wg.Done()
			fn(m)
		}(m)
	}
	wg.Wait()
}

// Machine is one node of the rack.
type Machine struct {
	ID      int
	cluster *Cluster
	Dev     *rdma.Device
	PD      *rdma.ProtectionDomain
	Cores   int

	ctl   map[int]*ctlChannel
	arena *Arena
}

// Cluster returns the owning cluster.
func (m *Machine) Cluster() *Cluster { return m.cluster }

// Metrics returns a view of the cluster registry scoped to this machine:
// every series created through it carries machine=<id>.
func (m *Machine) Metrics() *metrics.Scope {
	return m.cluster.Metrics().Scope(metrics.L("machine", strconv.Itoa(m.ID)))
}

// Peers returns the IDs of all other machines.
func (m *Machine) Peers() []int {
	peers := make([]int, 0, len(m.ctl))
	for p := range m.ctl {
		peers = append(peers, p)
	}
	return peers
}

// CtlSend sends a control message to peer and blocks until the send
// completes. Control-plane calls on one machine must come from a single
// goroutine at a time (the join's coordinator worker).
func (m *Machine) CtlSend(peer int, payload []byte) error {
	ch, ok := m.ctl[peer]
	if !ok {
		return fmt.Errorf("cluster: machine %d has no control channel to %d", m.ID, peer)
	}
	return ch.send(payload)
}

// CtlRecv blocks for the next control message from peer and returns its
// payload (copied).
func (m *Machine) CtlRecv(peer int) ([]byte, error) {
	ch, ok := m.ctl[peer]
	if !ok {
		return nil, fmt.Errorf("cluster: machine %d has no control channel to %d", m.ID, peer)
	}
	return ch.recv()
}

// Barrier blocks until every machine in the rack has entered the barrier.
// It is implemented with control messages through machine 0: a classic
// gather-release. All machines must call it, each from one goroutine.
func (m *Machine) Barrier() error {
	nm := m.cluster.NumMachines()
	if nm == 1 {
		return nil
	}
	if m.ID == 0 {
		for p := 1; p < nm; p++ {
			if _, err := m.CtlRecv(p); err != nil {
				return fmt.Errorf("barrier gather from %d: %w", p, err)
			}
		}
		for p := 1; p < nm; p++ {
			if err := m.CtlSend(p, []byte{1}); err != nil {
				return fmt.Errorf("barrier release to %d: %w", p, err)
			}
		}
		return nil
	}
	if err := m.CtlSend(0, []byte{1}); err != nil {
		return fmt.Errorf("barrier enter: %w", err)
	}
	if _, err := m.CtlRecv(0); err != nil {
		return fmt.Errorf("barrier release: %w", err)
	}
	return nil
}

// AllGather distributes data to every machine and returns the slice of all
// machines' contributions indexed by machine ID (the paper's machine-level
// histogram exchange). All machines must call it with their own data.
func (m *Machine) AllGather(data []byte) ([][]byte, error) {
	nm := m.cluster.NumMachines()
	out := make([][]byte, nm)
	own := make([]byte, len(data))
	copy(own, data)
	out[m.ID] = own
	// Send to higher IDs first, then receive from everyone, avoiding
	// send-queue dependence between peers (sends complete asynchronously;
	// the control channel blocks only on per-message completion, and
	// receives are pre-posted, so any order is deadlock-free).
	for p := 0; p < nm; p++ {
		if p == m.ID {
			continue
		}
		if err := m.CtlSend(p, data); err != nil {
			return nil, fmt.Errorf("all-gather send to %d: %w", p, err)
		}
	}
	for p := 0; p < nm; p++ {
		if p == m.ID {
			continue
		}
		buf, err := m.CtlRecv(p)
		if err != nil {
			return nil, fmt.Errorf("all-gather recv from %d: %w", p, err)
		}
		out[p] = buf
	}
	return out, nil
}

// AllGatherUint64 is AllGather for uint64 vectors (histograms).
func (m *Machine) AllGatherUint64(vec []uint64) ([][]uint64, error) {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	raw, err := m.AllGather(buf)
	if err != nil {
		return nil, err
	}
	out := make([][]uint64, len(raw))
	for i, b := range raw {
		if len(b)%8 != 0 {
			return nil, fmt.Errorf("all-gather: misaligned vector from %d", i)
		}
		v := make([]uint64, len(b)/8)
		for j := range v {
			v[j] = binary.LittleEndian.Uint64(b[8*j:])
		}
		out[i] = v
	}
	return out, nil
}

// Gather collects every machine's data at root (the paper's
// "predesignated coordinator" variant of the histogram exchange, Section
// 4.1). Non-root machines send their contribution and receive nothing;
// root receives all contributions indexed by machine ID (its own slot
// holds its own data). All machines must call it.
func (m *Machine) Gather(root int, data []byte) ([][]byte, error) {
	nm := m.cluster.NumMachines()
	if root < 0 || root >= nm {
		return nil, fmt.Errorf("cluster: gather root %d out of range", root)
	}
	if m.ID != root {
		return nil, m.CtlSend(root, data)
	}
	out := make([][]byte, nm)
	own := make([]byte, len(data))
	copy(own, data)
	out[m.ID] = own
	for p := 0; p < nm; p++ {
		if p == m.ID {
			continue
		}
		buf, err := m.CtlRecv(p)
		if err != nil {
			return nil, fmt.Errorf("gather recv from %d: %w", p, err)
		}
		out[p] = buf
	}
	return out, nil
}

// Broadcast distributes root's data to every machine; all machines call
// it and receive the same payload (root passes the source data, others
// pass nil).
func (m *Machine) Broadcast(root int, data []byte) ([]byte, error) {
	nm := m.cluster.NumMachines()
	if root < 0 || root >= nm {
		return nil, fmt.Errorf("cluster: broadcast root %d out of range", root)
	}
	if m.ID == root {
		for p := 0; p < nm; p++ {
			if p == m.ID {
				continue
			}
			if err := m.CtlSend(p, data); err != nil {
				return nil, fmt.Errorf("broadcast send to %d: %w", p, err)
			}
		}
		own := make([]byte, len(data))
		copy(own, data)
		return own, nil
	}
	buf, err := m.CtlRecv(root)
	if err != nil {
		return nil, fmt.Errorf("broadcast recv: %w", err)
	}
	return buf, nil
}

// GatherBroadcastUint64 performs the coordinator-based exchange of Section
// 4.1 for uint64 vectors: machines gather their vectors at root, root
// concatenates them in machine order and broadcasts the combination, and
// every machine returns the per-machine slices. It is the collective
// alternative to AllGatherUint64.
func (m *Machine) GatherBroadcastUint64(root int, vec []uint64) ([][]uint64, error) {
	buf := make([]byte, 8*len(vec))
	for i, v := range vec {
		binary.LittleEndian.PutUint64(buf[8*i:], v)
	}
	parts, err := m.Gather(root, buf)
	if err != nil {
		return nil, err
	}
	var combined []byte
	if m.ID == root {
		for p, b := range parts {
			if len(b) != len(buf) {
				return nil, fmt.Errorf("cluster: gather vector from %d has %d bytes, want %d", p, len(b), len(buf))
			}
			combined = append(combined, b...)
		}
	}
	combined, err = m.Broadcast(root, combined)
	if err != nil {
		return nil, err
	}
	nm := m.cluster.NumMachines()
	if len(combined) != nm*len(buf) {
		return nil, fmt.Errorf("cluster: combined vector has %d bytes, want %d", len(combined), nm*len(buf))
	}
	out := make([][]uint64, nm)
	for p := 0; p < nm; p++ {
		v := make([]uint64, len(vec))
		base := p * len(buf)
		for j := range v {
			v[j] = binary.LittleEndian.Uint64(combined[base+8*j:])
		}
		out[p] = v
	}
	return out, nil
}
