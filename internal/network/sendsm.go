package network

import "repro/internal/sim"

// This file is how a sim.Machine sends on a Channel. SendStep and
// SendDeferredStep are resumable calls: each acquires the channel FCFS
// behind other senders, holds it for the transfer time, releases it, and
// then accounts the bytes and the message.

// SendState holds the progress of one resumable channel send. The zero
// value is ready to use; a completed send resets it so the same state can
// drive the next transfer. Callers embed one per concurrently-outstanding
// send (a client has at most one).
type SendState struct {
	pc    uint8
	bytes int
	start float64
}

const (
	sendAcquire uint8 = iota // next: acquire the channel
	sendHold                 // acquired; next: hold the transfer time
	sendDone                 // transfer done; next: release and account
)

// SendStep advances a fixed-size send on machine m. It returns true when
// the message has been fully delivered; false means the machine is waiting
// (queued for the channel or mid-transfer) and must call SendStep again
// from the Step that its wake triggers.
func (c *Channel) SendStep(m *sim.Machine, st *SendState, bytes int) bool {
	for {
		switch st.pc {
		case sendAcquire:
			st.bytes = bytes
			st.pc = sendHold
			if !c.res.AcquireCall(m) {
				return false
			}
		case sendHold:
			st.pc = sendDone
			m.Hold(c.TransferTime(st.bytes))
			return false
		case sendDone:
			c.res.Release()
			c.bytesSent += uint64(st.bytes)
			c.messages++
			st.pc = sendAcquire
			return true
		}
	}
}

// SendDeferredStep advances a deferred-size send on machine m: sizeFn is
// called with the queueing delay once the channel is acquired, and the
// transfer is then paid at that size. It implements the paper's timeout
// heuristic (§5.3): a reply that has queued too long can be shrunk
// (prefetched items shed) at the moment delivery begins. Returns true when
// delivered; false while waiting.
func (c *Channel) SendDeferredStep(m *sim.Machine, st *SendState, sizeFn func(waited float64) int) bool {
	for {
		switch st.pc {
		case sendAcquire:
			st.start = m.Now()
			st.pc = sendHold
			if !c.res.AcquireCall(m) {
				return false
			}
		case sendHold:
			st.bytes = sizeFn(m.Now() - st.start)
			st.pc = sendDone
			m.Hold(c.TransferTime(st.bytes))
			return false
		case sendDone:
			c.res.Release()
			c.bytesSent += uint64(st.bytes)
			c.messages++
			st.pc = sendAcquire
			return true
		}
	}
}
