package core

import (
	"fmt"
	"sync"
	"time"

	"rackjoin/internal/cluster"
	"rackjoin/internal/rdma"
	"rackjoin/internal/trace"
)

// recvRingSlots is the number of pre-posted receive buffers per incoming
// queue pair in channel-semantics mode (Section 4.2.2: "only register a
// predefined number of small RDMA-enabled buffers").
const recvRingSlots = 8

// recvRing is the pre-posted receive buffer ring of one incoming queue
// pair. Slots are consumed by incoming SENDs, their payload copied into
// the destination partition region by the network thread, and re-posted.
// The slots are a slice of the machine's resident ring region: a payload
// is read only for the byte count its completion reports, all of which
// the SEND just wrote.
type recvRing struct {
	qp    *rdma.QP
	mr    *rdma.MemoryRegion
	base  int // byte offset of slot 0 within mr
	bufSz int

	// src/srcThread identify the sender (machine, partitioning thread)
	// whose queue pair feeds this ring; seq counts the data messages
	// consumed, mirroring the sender's per-(thread, dest) sequence so the
	// trace layer can key cross-machine flow edges (per-QP FIFO order).
	src       int
	srcThread int
	seq       uint64
}

// ringCarver hands out consecutive receive rings from one arena region
// sized for a known number of rings.
type ringCarver struct {
	mr    *rdma.MemoryRegion
	bufSz int
	used  int
}

func newRingCarver(arena *cluster.Arena, key string, rings, bufSize int) (ringCarver, error) {
	mr, err := arena.Region(key, rings*recvRingSlots*bufSize, rdma.AccessLocalWrite)
	return ringCarver{mr: mr, bufSz: bufSize}, err
}

// next carves the next ring for qp and pre-posts its slots.
func (rc *ringCarver) next(qp *rdma.QP) (*recvRing, error) {
	r := &recvRing{qp: qp, mr: rc.mr, base: rc.used * recvRingSlots * rc.bufSz, bufSz: rc.bufSz}
	if rc.mr == nil || r.base+recvRingSlots*rc.bufSz > rc.mr.Len() {
		return nil, fmt.Errorf("core: receive ring region too small for ring %d", rc.used)
	}
	rc.used++
	for i := 0; i < recvRingSlots; i++ {
		if err := r.post(i); err != nil {
			return nil, err
		}
	}
	return r, nil
}

func (r *recvRing) post(slot int) error {
	return r.qp.PostRecv(rdma.RecvWR{
		WRID:  uint64(slot),
		Local: rdma.Segment{MR: r.mr, Offset: r.base + slot*r.bufSz, Length: r.bufSz},
	})
}

func (r *recvRing) payload(slot, length int) []byte {
	off := r.base + slot*r.bufSz
	return r.mr.Bytes()[off : off+length : off+length]
}

// postReceiveRings is a hook kept for symmetry: rings are created during
// data-plane wiring (setup). It validates that channel semantics have the
// rings they need.
func (st *machineState) postReceiveRings() error {
	if st.nm == 1 || !st.cfg.usesNetworkThread() || st.cfg.Transport == TransportTCP {
		return nil
	}
	want := (st.nm - 1) * st.partThreads
	if len(st.rings) != want {
		return fmt.Errorf("core: %d receive rings wired, want %d", len(st.rings), want)
	}
	return nil
}

// expectedRemoteBytes returns how many payload bytes this machine will
// receive during the network partitioning pass — known exactly from the
// exchanged machine-level histograms, which is how the receive loop knows
// when the pass is complete without explicit end-of-stream messages.
func (st *machineState) expectedRemoteBytes() uint64 {
	var tuples uint64
	for _, p := range st.resident {
		for m := 0; m < st.nm; m++ {
			if m == st.m.ID {
				continue
			}
			tuples += st.allHistR[m][p]
			if st.owner[p] == st.m.ID {
				// Broadcast partitions never ship outer tuples…
				tuples += st.allHistS[m][p]
			} else if st.isSplit(p) {
				// …except skew-split ones, which deal an exactly
				// derivable share of every sender's outer tuples here.
				tuples += uint64(st.splitShare(m, p, st.m.ID))
			}
		}
	}
	return tuples * uint64(st.width)
}

// receiveLoop is the network thread of channel-semantics mode: it drains
// the shared receive completion queue, appends each buffer's tuples to the
// addressed partition region and re-posts the buffer. One core per machine
// runs this loop during the network partitioning pass, matching the
// paper's N_C/M − 1 partitioning threads.
func (st *machineState) receiveLoop() error {
	expected := st.expectedRemoteBytes()
	if expected == 0 {
		return nil
	}
	// Arrival-order append cursors: the local share of each owned
	// partition occupies the front of its slab range; remote data lands
	// behind it.
	w := int64(st.width)
	curR := make([]int64, st.np)
	curS := make([]int64, st.np)
	for _, p := range st.resident {
		curR[p] = (st.slabOffR[st.m.ID][p] + int64(st.allHistR[st.m.ID][p])) * w
		selfS := int64(st.allHistS[st.m.ID][p])
		if st.isSplit(p) {
			// Split partitions lead with the self-dealt share only; the
			// dealt-in remainder lands behind it in arrival order.
			selfS = st.splitShare(st.m.ID, p, st.m.ID)
		}
		curS[p] = (st.slabOffS[st.m.ID][p] + selfS) * w
	}
	slabR := st.slabR.Bytes()
	slabS := st.slabS.Bytes()

	var received uint64
	var polled [1]rdma.Completion
	idle := pollIdleMin
	for received < expected {
		var c rdma.Completion
		if st.pipe != nil {
			// Pipelined pass: poll instead of block, and spend every dry
			// gap on partition-ready join work. Arrivals keep priority —
			// one task per empty poll, re-checking the queue in between —
			// so the receive rings drain promptly and senders never stall
			// on a busy network thread. When there is neither data nor
			// work the loop backs off exponentially: on a host with fewer
			// cores than simulated machines, tight poll sleeps would burn
			// the CPU the other machines' threads need.
			if st.recvCQ.Poll(polled[:]) == 0 {
				if w := st.pipe.netWorker; w == nil || !st.pipe.runReadyTask(w) {
					time.Sleep(idle)
					if idle < pollIdleMax {
						idle *= 2
						if idle >= pollIdleMax {
							st.flight("backoff", "receive loop at max poll backoff", 0, 0)
						}
					}
				} else {
					idle = pollIdleMin
				}
				continue
			}
			idle = pollIdleMin
			c = polled[0]
		} else {
			c = st.recvCQ.Wait()
		}
		if err := c.Err(); err != nil {
			return fmt.Errorf("receive: %w", err)
		}
		if !c.HasImm {
			return fmt.Errorf("receive: data message without partition immediate")
		}
		ring, ok := st.rings[c.QPN]
		if !ok {
			return fmt.Errorf("receive: completion from unknown QP %d", c.QPN)
		}
		p := int(c.Imm &^ relationFlag)
		if p >= st.np || !st.residentHere(p) {
			return fmt.Errorf("receive: tuple batch for partition %d not resident on machine %d", p, st.m.ID)
		}
		payload := ring.payload(int(c.WRID), c.Bytes)
		if c.Imm&relationFlag != 0 {
			copy(slabS[curS[p]:], payload)
			curS[p] += int64(c.Bytes)
		} else {
			copy(slabR[curR[p]:], payload)
			curR[p] += int64(c.Bytes)
		}
		var gate trace.SpanID
		if tr := st.cfg.Trace; tr != nil {
			// Message edge: rendezvous with the sender's FlowOut of the
			// same (src machine, src thread, dest, sequence) key.
			gate = tr.InstantFlowIn(st.m.ID, "msg", st.recvLabels[p], st.runSpan, int64(c.Bytes),
				"msg", msgFlowKey(ring.src, ring.srcThread, st.m.ID, ring.seq))
			ring.seq++
		}
		if st.pipe != nil {
			// Credit after the copy: a partition only becomes ready once
			// its tuples are actually in place.
			st.pipe.credit(p, int64(c.Bytes), gate)
		}
		if err := ring.post(int(c.WRID)); err != nil {
			return err
		}
		received += uint64(c.Bytes)
	}
	return nil
}

// tcpReceiveLoop is the TransportTCP counterpart of receiveLoop: kernel
// socket readers deliver frames which are appended to the addressed
// partition regions. Readers run concurrently (one per incoming
// connection, as the kernel would schedule them), so cursor updates are
// serialised.
func (st *machineState) tcpReceiveLoop() error {
	expected := st.expectedRemoteBytes()
	if expected == 0 {
		return nil
	}
	w := int64(st.width)
	curR := make([]int64, st.np)
	curS := make([]int64, st.np)
	for _, p := range st.resident {
		curR[p] = (st.slabOffR[st.m.ID][p] + int64(st.allHistR[st.m.ID][p])) * w
		selfS := int64(st.allHistS[st.m.ID][p])
		if st.isSplit(p) {
			selfS = st.splitShare(st.m.ID, p, st.m.ID)
		}
		curS[p] = (st.slabOffS[st.m.ID][p] + selfS) * w
	}
	slabR := st.slabR.Bytes()
	slabS := st.slabS.Bytes()

	var mu sync.Mutex
	var handleErr error
	err := st.tcp.Receive(expected, func(tag uint32, payload []byte) {
		p := int(tag &^ relationFlag)
		mu.Lock()
		defer mu.Unlock()
		if p >= st.np || !st.residentHere(p) {
			if handleErr == nil {
				handleErr = fmt.Errorf("tcp receive: tuple batch for partition %d not resident on machine %d", p, st.m.ID)
			}
			return
		}
		if tag&relationFlag != 0 {
			copy(slabS[curS[p]:], payload)
			curS[p] += int64(len(payload))
		} else {
			copy(slabR[curR[p]:], payload)
			curR[p] += int64(len(payload))
		}
		if st.pipe != nil {
			// No sender identity survives the kernel TCP boundary, so TCP
			// runs carry no per-message flow edges (gate 0).
			st.pipe.credit(p, int64(len(payload)), 0)
		}
	})
	if err != nil {
		return err
	}
	return handleErr
}
