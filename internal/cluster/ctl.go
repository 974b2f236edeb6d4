package cluster

import (
	"fmt"

	"rackjoin/internal/rdma"
)

// ctlChannel is one machine's endpoint of a control-plane link to a peer:
// a dedicated queue pair with pre-posted fixed-size receives and a single
// rotating send buffer. Control traffic is low-rate and fully synchronous
// (each send waits for its completion), which keeps the channel trivially
// deadlock-free given pre-posted receives.
type ctlChannel struct {
	qp     *rdma.QP
	sendCQ *rdma.CompletionQueue
	recvCQ *rdma.CompletionQueue
	sendMR *rdma.MemoryRegion
	recvMR *rdma.MemoryRegion
	bufSz  int
}

// newCtlPair wires the control channels between machines a and b.
func newCtlPair(a, b *Machine, cfg Config) (*ctlChannel, *ctlChannel, error) {
	chA, err := newCtlChannel(a, cfg)
	if err != nil {
		return nil, nil, err
	}
	chB, err := newCtlChannel(b, cfg)
	if err != nil {
		return nil, nil, err
	}
	if err := rdma.Connect(chA.qp, chB.qp); err != nil {
		return nil, nil, err
	}
	return chA, chB, nil
}

func newCtlChannel(m *Machine, cfg Config) (*ctlChannel, error) {
	ch := &ctlChannel{
		sendCQ: m.Dev.NewCQ(),
		recvCQ: m.Dev.NewCQ(),
		bufSz:  cfg.CtlBufSize,
	}
	var err error
	ch.qp, err = m.PD.CreateQP(rdma.QPConfig{
		SendCQ: ch.sendCQ,
		RecvCQ: ch.recvCQ,
		Depth:  cfg.CtlBufCount + 1,
	})
	if err != nil {
		return nil, err
	}
	ch.sendMR, err = m.PD.RegisterMemory(make([]byte, cfg.CtlBufSize), 0)
	if err != nil {
		return nil, err
	}
	ch.recvMR, err = m.PD.RegisterMemory(make([]byte, cfg.CtlBufSize*cfg.CtlBufCount), rdma.AccessLocalWrite)
	if err != nil {
		return nil, err
	}
	for i := 0; i < cfg.CtlBufCount; i++ {
		if err := ch.postRecvSlot(i); err != nil {
			return nil, err
		}
	}
	return ch, nil
}

// close unpins the channel's buffers (Cluster.Close).
func (ch *ctlChannel) close() {
	for _, mr := range []*rdma.MemoryRegion{ch.sendMR, ch.recvMR} {
		if mr != nil {
			_ = mr.Deregister() // fails only when already deregistered
		}
	}
}

func (ch *ctlChannel) postRecvSlot(slot int) error {
	return ch.qp.PostRecv(rdma.RecvWR{
		WRID:  uint64(slot),
		Local: rdma.Segment{MR: ch.recvMR, Offset: slot * ch.bufSz, Length: ch.bufSz},
	})
}

func (ch *ctlChannel) send(payload []byte) error {
	if len(payload) > ch.bufSz {
		return fmt.Errorf("cluster: control message of %d bytes exceeds buffer size %d", len(payload), ch.bufSz)
	}
	copy(ch.sendMR.Bytes(), payload)
	err := ch.qp.PostSend(rdma.SendWR{
		Op:       rdma.OpSend,
		Local:    rdma.Segment{MR: ch.sendMR, Length: len(payload)},
		Signaled: true,
	})
	if err != nil {
		return err
	}
	return ch.sendCQ.Wait().Err()
}

func (ch *ctlChannel) recv() ([]byte, error) {
	c := ch.recvCQ.Wait()
	if err := c.Err(); err != nil {
		return nil, err
	}
	slot := int(c.WRID)
	payload := make([]byte, c.Bytes)
	copy(payload, ch.recvMR.Bytes()[slot*ch.bufSz:slot*ch.bufSz+c.Bytes])
	if err := ch.postRecvSlot(slot); err != nil {
		return nil, err
	}
	return payload, nil
}
