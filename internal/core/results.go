package core

import (
	"fmt"
	"sync"

	"rackjoin/internal/hashtable"
	"rackjoin/internal/rdma"
)

// Section 4.3: "The result containing the matching tuples can either be
// output to a local buffer or written to RDMA-enabled buffers, depending
// on the location where the result will be further processed. Similar to
// the partitioning phase, we transmit an RDMA-enabled buffer over the
// network once it is full. To be able to continue processing, each thread
// receives multiple output buffers for transmitting data."
//
// With Config.ResultTarget ≥ 0, every build-probe worker materialises its
// matches into a pre-registered output buffer pool and ships full buffers
// to the target machine, where ResultSink consumes them. The target's own
// workers sink locally.

// resultFlag marks result buffers in the immediate value; resultDone
// marks a worker's end-of-results message.
const (
	resultFlag = uint32(1) << 29
	resultDone = uint32(1) << 28
)

// resultShipper is one worker's output path: a small RDMA buffer pool
// with the usual reuse-after-completion discipline.
type resultShipper struct {
	pool *bufferPool
	qp   *rdma.QP
	cur  int32
	fill int
}

// newResultShipper gives worker its slice of the result-pool region mr.
func newResultShipper(st *machineState, mr *rdma.MemoryRegion, worker int) *resultShipper {
	base := worker * resultBuffers * st.cfg.BufferSize
	pool := newBufferPool(st.resCQ[worker], mr, base, st.cfg.BufferSize, resultBuffers)
	return &resultShipper{pool: pool, qp: st.resQP[worker], cur: -1}
}

// resultBuffers is the number of output buffers per worker ("multiple
// output buffers", §4.3; two suffice for interleaving).
const resultBuffers = 2

// emit appends materialised records, shipping buffers as they fill.
func (rs *resultShipper) emit(records []byte) error {
	for len(records) > 0 {
		if rs.cur < 0 {
			b, err := rs.pool.acquire()
			if err != nil {
				return err
			}
			rs.cur = b
			rs.fill = 0
		}
		buf := rs.pool.buf(rs.cur)
		// Ship whole records only: keep the buffer a multiple of the
		// record size.
		space := (len(buf) - rs.fill) / hashtable.ResultWidth * hashtable.ResultWidth
		n := copy(buf[rs.fill:rs.fill+min(space, len(records))], records)
		rs.fill += n
		records = records[n:]
		if len(buf)-rs.fill < hashtable.ResultWidth {
			if err := rs.flush(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (rs *resultShipper) flush() error {
	if rs.cur < 0 || rs.fill == 0 {
		if rs.cur >= 0 {
			rs.pool.release(rs.cur)
			rs.cur = -1
		}
		return nil
	}
	err := rs.qp.PostSend(rdma.SendWR{
		WRID: uint64(rs.cur), Op: rdma.OpSend, Signaled: true,
		Imm: resultFlag, HasImm: true,
		Local: rdma.Segment{MR: rs.pool.mr, Offset: rs.pool.off(rs.cur), Length: rs.fill},
	})
	if err != nil {
		return err
	}
	rs.pool.outstanding++
	rs.cur = -1
	rs.fill = 0
	return nil
}

// finish flushes the partial buffer, drains outstanding transfers and
// sends the worker's DONE marker.
func (rs *resultShipper) finish() error {
	if err := rs.flush(); err != nil {
		return err
	}
	if err := rs.qp.PostSend(rdma.SendWR{
		Op: rdma.OpSend, Imm: resultDone, HasImm: true, Inline: []byte{0},
	}); err != nil {
		return err
	}
	return rs.pool.drain()
}

// wireResultPlane connects every non-target worker to the target machine
// and posts the target's receive rings.
func wireResultPlane(states []*machineState) error {
	cfg := states[0].cfg
	if cfg.ResultTarget < 0 {
		return nil
	}
	target := states[cfg.ResultTarget]
	target.resRecvCQ = target.m.Dev.NewCQ()
	remote := 0
	for _, st := range states {
		if st.m.ID != cfg.ResultTarget {
			remote += st.m.Cores
		}
	}
	rings, err := newRingCarver(target.arena, regionResultRings, remote, cfg.BufferSize)
	if err != nil {
		return err
	}
	for _, st := range states {
		if st.m.ID == cfg.ResultTarget {
			continue
		}
		st.resCQ = make([]*rdma.CompletionQueue, st.m.Cores)
		st.resQP = make([]*rdma.QP, st.m.Cores)
		for w := 0; w < st.m.Cores; w++ {
			st.resCQ[w] = st.m.Dev.NewCQ()
			qpS, err := st.m.PD.CreateQP(rdma.QPConfig{SendCQ: st.resCQ[w], RecvCQ: st.resCQ[w]})
			if err != nil {
				return err
			}
			qpR, err := target.m.PD.CreateQP(rdma.QPConfig{SendCQ: target.resRecvCQ, RecvCQ: target.resRecvCQ})
			if err != nil {
				return err
			}
			if err := rdma.Connect(qpS, qpR); err != nil {
				return err
			}
			st.resQP[w] = qpS
			ring, err := rings.next(qpR)
			if err != nil {
				return err
			}
			target.resRings[qpR.QPN()] = ring
		}
	}
	return nil
}

// receiveResults runs on the target machine concurrently with its own
// build-probe workers, feeding arriving result buffers to the sink until
// every remote worker reported DONE.
func (st *machineState) receiveResults() error {
	want := 0
	for range st.resRings {
		want++ // one DONE per remote worker connection
	}
	done := 0
	for done < want {
		c := st.resRecvCQ.Wait()
		if err := c.Err(); err != nil {
			return fmt.Errorf("result receive: %w", err)
		}
		ring, ok := st.resRings[c.QPN]
		if !ok {
			return fmt.Errorf("result receive: unknown QP %d", c.QPN)
		}
		switch {
		case c.Imm&resultDone != 0:
			done++
		case c.Imm&resultFlag != 0:
			records := make([]byte, c.Bytes)
			copy(records, ring.payload(int(c.WRID), c.Bytes))
			st.cfg.ResultSink(st.m.ID, records)
		default:
			return fmt.Errorf("result receive: unexpected immediate %x", c.Imm)
		}
		if err := ring.post(int(c.WRID)); err != nil {
			return err
		}
	}
	return nil
}

// runResultPlane wraps localPassAndBuildProbe with the result plane: the
// target drains incoming results concurrently; other machines attach a
// shipper to each worker.
func (st *machineState) runResultPlane(body func(shippers []*resultShipper) error) error {
	if st.cfg.ResultSink == nil || st.cfg.ResultTarget < 0 {
		return body(nil)
	}
	if st.m.ID == st.cfg.ResultTarget {
		var recvErr error
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			recvErr = st.receiveResults()
		}()
		err := body(nil)
		wg.Wait()
		if err != nil {
			return err
		}
		return recvErr
	}
	mr, err := st.arena.Region(regionResultPools, st.m.Cores*resultBuffers*st.cfg.BufferSize, 0)
	if err != nil {
		return err
	}
	shippers := make([]*resultShipper, st.m.Cores)
	for w := range shippers {
		shippers[w] = newResultShipper(st, mr, w)
	}
	if err := body(shippers); err != nil {
		return err
	}
	for _, rs := range shippers {
		if err := rs.finish(); err != nil {
			return err
		}
	}
	return nil
}
