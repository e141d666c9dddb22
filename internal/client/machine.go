package client

import (
	"math"
	"sort"

	"repro/internal/coherence"
	"repro/internal/core"
	"repro/internal/network"
	"repro/internal/oodb"
	"repro/internal/server"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/workload"
)

// This file is the client's request loop, written as two resumable state
// machines stepped inline off the kernel's event heap — no goroutine, no
// channel rendezvous, and no allocation on the resume path:
//
//   - clientMachine is the open-loop query pump: draw the next arrival,
//     wait for it, generate the query, run it, repeat until the horizon;
//   - queryRun is one query's pipeline: probe the local caches, pay the
//     local access time, split off broadcast-covered reads, try the cell
//     peers, make the server round trip (with timeout, retransmission and
//     backoff when fault models are attached, degraded serving when every
//     attempt fails), then wait for the broadcast slots.
//
// Each wait point (arrival, local-access hold, uplink, server staging,
// downlink, retry timeout and backoff, broadcast slots) records the phase
// to re-enter and returns; the Step loop advances inline through phases
// that did not actually wait.

// clientMachine phases.
const (
	cmArrive uint8 = iota // draw the next arrival; wait for it
	cmQuery               // generate the query; start its run
	cmRun                 // step the query run until it completes
)

// clientMachine is one mobile host's query pump. It is allocated once per
// client at StartMachine and never again.
type clientMachine struct {
	c         *Client
	pc        uint8
	scheduled float64
	q         workload.Query // the current query, reused round after round
	run       queryRun
}

// StartMachine spawns the client's query pump on its kernel.
func (c *Client) StartMachine() *sim.Machine {
	cm := &clientMachine{c: c}
	cm.run.init(c)
	return c.kernel.SpawnMachine("client", cm)
}

// Step advances the pump; see clientMachine.
func (cm *clientMachine) Step(m *sim.Machine) {
	c := cm.c
	for {
		switch cm.pc {
		case cmArrive:
			cm.scheduled = c.arrival.Next(c.rnd, cm.scheduled)
			if cm.scheduled >= c.horizon {
				m.Finish()
				return
			}
			cm.pc = cmQuery
			if m.Now() < cm.scheduled && m.HoldUntil(cm.scheduled) {
				return
			}

		case cmQuery:
			c.gen.NextInto(c.rnd, &cm.q)
			cm.run.begin(&cm.q, cm.scheduled)
			cm.pc = cmRun

		case cmRun:
			if !cm.run.step(m) {
				return
			}
			cm.pc = cmArrive
		}
	}
}

// queryRun phases. Each wait point records the phase to re-enter.
const (
	qrProbe     uint8 = iota // probe the local caches
	qrLocalDone              // local holds paid; split air/pull/peer
	qrPeerUp                 // cooperative lookup: probe frame on the uplink
	qrPeerDown               // cooperative lookup: batched reply downlink
	qrRemote                 // peer stage settled; decide the server trip
	qrAttempt                // arm one round-trip attempt
	qrUp                     // uplink transfer
	qrSrv                    // server staging
	qrDown                   // downlink transfer
	qrTimeout                // attempt failed; wait out the timeout
	qrExpired                // timeout fired; give up or back off
	qrAir                    // sort broadcast items by next delivery
	qrAirWait                // wait for the current item's slot
	qrAirRecv                // receive and cache the current item
	qrDone                   // finish the query record
)

// queryRun is one query's resumable pipeline. A client runs one query at a
// time, so one queryRun per client is reused for every query; all state
// that must survive a wait lives here.
type queryRun struct {
	c    *Client
	pc   uint8
	call server.RequestCall
	send network.SendState
	// shedFn is shed bound once so SendDeferredStep never allocates.
	shedFn func(float64) int

	q         *workload.Query
	issuedAt  float64
	connected bool
	existent  int
	remote    bool
	peerRadio bool
	rec       trace.QueryRecord
	need      []workload.ReadOp
	fromAir   []oodb.Item
	airIdx    int

	req        server.Request
	reqBytes   int
	items      []server.ReplyItem
	replyBytes int

	attempt  int
	retries  int
	deadline float64
}

// init binds the run to its client and the client's backend.
func (qr *queryRun) init(c *Client) {
	qr.c = c
	qr.call = c.srv.NewCall()
	qr.shedFn = qr.shed
}

// begin arms the run for query q, scheduled to arrive at issuedAt; response
// time is measured from then. q must stay valid until the run completes.
func (qr *queryRun) begin(q *workload.Query, issuedAt float64) {
	qr.q = q
	qr.issuedAt = issuedAt
	qr.pc = qrProbe
}

// shed is the downlink's deferred-size hook, the paper's timeout heuristic
// (§5.3): a reply that queued past the threshold drops its prefetched
// items as delivery begins, shortening the transfer the whole cell waits
// behind. On a perfect channel the reply is certain to arrive, so its
// receive energy is charged here; under faults qrDown charges it according
// to the frame's fate.
func (qr *queryRun) shed(waited float64) int {
	c := qr.c
	if c.shedThreshold > 0 && waited > c.shedThreshold {
		kept := c.scratchKept[:0]
		for _, it := range qr.items {
			if !it.Prefetched {
				kept = append(kept, it)
			}
		}
		c.shedItems += uint64(len(qr.items) - len(kept))
		c.scratchKept = kept
		qr.items = kept
	}
	qr.replyBytes = server.WireSizeItems(qr.items)
	if !c.faulted() {
		c.energyJoules += network.RxEnergy(qr.replyBytes)
	}
	return qr.replyBytes
}

// step advances the query inside machine m and reports whether it has
// completed; false means the machine is waiting and must call step again
// from its next wake.
func (qr *queryRun) step(m *sim.Machine) bool {
	c := qr.c
	for {
		switch qr.pc {
		case qrProbe:
			qr.connected = c.sched.Connected(m.Now())
			need := qr.need[:0]
			qr.existent = 0
			qr.rec = trace.QueryRecord{
				ClientID:     c.id,
				Index:        qr.q.Index,
				IssuedAt:     qr.issuedAt,
				Reads:        len(qr.q.Reads),
				Disconnected: !qr.connected,
			}
			localDelay := 0.0
			for _, rd := range qr.q.Reads {
				item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
				entry, state, delay := c.probeLocal(m.Now(), item)
				localDelay += delay
				now := m.Now()
				switch {
				case state == core.Hit:
					// Served by a locally unexpired item: a cache hit. The
					// read may still be erroneous if a write landed inside
					// the lease.
					isErr := c.oracle.IsError(item, entry.Version)
					c.m.RecordAccess(now, true)
					c.m.RecordError(now, isErr)
					qr.existent++
					qr.rec.Hits++
					if isErr {
						qr.rec.Errors++
					}
				case state == core.Stale && !qr.connected:
					// Disconnected operation (§5.6): continue on the
					// expired copy. Not a hit, frequently an error.
					isErr := c.oracle.IsError(item, entry.Version)
					c.m.RecordAccess(now, false)
					c.m.RecordError(now, isErr)
					qr.rec.Stale++
					if isErr {
						qr.rec.Errors++
					}
				case !qr.connected:
					// Disconnected miss: the read is unsatisfiable.
					c.m.RecordAccess(now, false)
					c.m.RecordUnavailable(now)
					qr.rec.Unavailable++
				default:
					// Connected miss or expired copy: fetch remotely.
					need = append(need, rd)
				}
			}
			qr.need = need
			qr.pc = qrLocalDone
			// Local accesses are microseconds each; charge them in one
			// hold so the kernel dispatches one event per query instead
			// of one per read.
			if localDelay > 0 {
				m.Hold(localDelay)
				return false
			}

		case qrLocalDone:
			// Reads covered by the broadcast program are answered from
			// the air; only the rest go point-to-point.
			fromAir := qr.fromAir[:0]
			if c.bcast != nil && qr.connected {
				pull := qr.need[:0] // in-place filter: pull lags the read cursor
				for _, rd := range qr.need {
					item := core.CoverItem(c.granularity, rd.OID, rd.Attr)
					if c.bcast.Covers(item) {
						if !containsItem(fromAir, item) {
							fromAir = append(fromAir, item)
						}
						c.bcastReads++
						c.m.RecordAccess(m.Now(), false)
						c.m.RecordError(m.Now(), false)
						continue
					}
					pull = append(pull, rd)
				}
				qr.need = pull
			}
			qr.fromAir = fromAir
			qr.peerRadio = false
			// Cooperative lookup: ask cell peers for valid copies before
			// paying the server round trip.
			if c.peerScan > 0 && qr.connected && len(qr.need) > 0 {
				if c.planPeerFetch(m.Now(), qr.need) {
					qr.peerRadio = true
					qr.pc = qrPeerUp
					continue
				}
				c.peerMisses += uint64(len(qr.need))
			}
			qr.pc = qrRemote

		case qrPeerUp:
			if !c.up.SendStep(m, &qr.send, c.peerProbeBytes) {
				return false
			}
			c.energyJoules += network.TxEnergy(c.peerProbeBytes)
			if transmit(c.upFaults, m.Now()) != network.FrameDelivered {
				c.abortPeerFetch(qr.need)
				qr.pc = qrRemote
				continue
			}
			qr.pc = qrPeerDown

		case qrPeerDown:
			if !c.down.SendStep(m, &qr.send, c.peerReplyBytes) {
				return false
			}
			outcome := transmit(c.downFaults, m.Now())
			if outcome != network.FrameLost {
				// The frame was received (and, if corrupted, rejected after
				// the fact): the radio energy is spent either way.
				c.energyJoules += network.RxEnergy(c.peerReplyBytes)
			}
			if outcome != network.FrameDelivered {
				c.abortPeerFetch(qr.need)
			} else {
				qr.need = c.commitPeerFetch(m.Now(), qr.need, &qr.rec)
			}
			qr.pc = qrRemote

		case qrRemote:
			qr.remote = qr.connected && len(qr.need) > 0
			if !qr.remote {
				qr.pc = qrAir
				continue
			}
			qr.req = server.Request{
				ClientID:        c.id,
				Granularity:     c.granularity,
				Accesses:        qr.q.Reads,
				Need:            qr.need,
				ExistentEntries: qr.existent,
			}
			qr.reqBytes = qr.req.WireSize()
			qr.rec.RequestBytes = qr.reqBytes
			qr.attempt = 0
			qr.retries = 0
			qr.pc = qrAttempt

		case qrAttempt:
			// On a perfect channel the first attempt always succeeds and
			// the deadline is never consulted.
			qr.deadline = m.Now() + c.requestTimeout(qr.reqBytes)
			qr.pc = qrUp

		case qrUp:
			if !c.up.SendStep(m, &qr.send, qr.reqBytes) {
				return false
			}
			c.energyJoules += network.TxEnergy(qr.reqBytes)
			if transmit(c.upFaults, m.Now()) != network.FrameDelivered {
				qr.pc = qrTimeout
				continue
			}
			qr.call.Begin(qr.req)
			qr.pc = qrSrv

		case qrSrv:
			rep, done := qr.call.Step(m)
			if !done {
				return false
			}
			qr.items = rep.Items
			qr.pc = qrDown

		case qrDown:
			if !c.down.SendDeferredStep(m, &qr.send, qr.shedFn) {
				return false
			}
			switch transmit(c.downFaults, m.Now()) {
			case network.FrameDelivered:
				if c.faulted() {
					c.energyJoules += network.RxEnergy(qr.replyBytes)
				}
				c.replyEstimate = qr.replyBytes
				c.installReply(m.Now(), qr.need, qr.items)
				qr.rec.ReplyBytes = qr.replyBytes
				qr.rec.Retries = qr.retries
				qr.pc = qrAir
				continue
			case network.FrameCorrupted:
				// The frame arrived and was received in full before the CRC
				// check rejected it: the radio energy is spent.
				c.energyJoules += network.RxEnergy(qr.replyBytes)
			}
			// FrameLost: nothing arrived, nothing received.
			qr.pc = qrTimeout

		case qrTimeout:
			// The attempt failed somewhere; the client detects it when its
			// timeout expires (or immediately, if the exchange already
			// overran the timeout while queueing).
			qr.pc = qrExpired
			if m.Now() < qr.deadline && m.HoldUntil(qr.deadline) {
				return false
			}

		case qrExpired:
			c.timeouts++
			c.m.RecordTimeout(m.Now())
			if qr.attempt >= c.retry.MaxRetries {
				qr.rec.ReplyBytes = 0
				qr.rec.Retries = qr.retries
				qr.rec.TimedOut = true
				c.serveDegraded(m.Now(), qr.need, &qr.rec)
				qr.pc = qrAir
				continue
			}
			qr.retries++
			c.m.RecordRetry(m.Now())
			backoff := c.retry.BackoffBase * math.Pow(2, float64(qr.attempt))
			if backoff > c.retry.BackoffMax {
				backoff = c.retry.BackoffMax
			}
			qr.attempt++
			qr.pc = qrAttempt
			// Jitter in [0.5, 1.5)× the nominal delay decorrelates the
			// retransmissions of clients that lost frames in the same burst.
			m.Hold(backoff * (0.5 + c.retryRnd.Float64()))
			return false

		case qrAir:
			if len(qr.fromAir) == 0 {
				qr.pc = qrDone
				continue
			}
			// Delivery order keeps the total wait within one revolution.
			sort.Slice(qr.fromAir, func(i, j int) bool {
				return c.bcast.NextDelivery(qr.fromAir[i], m.Now()) <
					c.bcast.NextDelivery(qr.fromAir[j], m.Now())
			})
			qr.airIdx = 0
			qr.pc = qrAirWait

		case qrAirWait:
			if qr.airIdx >= len(qr.fromAir) {
				qr.pc = qrDone
				continue
			}
			qr.pc = qrAirRecv
			if m.HoldUntil(c.bcast.NextDelivery(qr.fromAir[qr.airIdx], m.Now())) {
				return false
			}

		case qrAirRecv:
			// A broadcast copy is valid for one cycle: the next revolution
			// would refresh it.
			item := qr.fromAir[qr.airIdx]
			c.energyJoules += network.RxEnergy(c.bcast.SlotBytes())
			entry := core.Entry{
				Version:   c.oracle.CurrentVersion(item),
				ExpiresAt: m.Now() + c.bcast.Cycle(),
				FetchedAt: m.Now(),
			}
			if reportCoherence(c.coherenceMode) {
				entry.ExpiresAt = coherence.NoExpiry
			}
			if c.store != nil {
				c.store.Insert(item, entry, m.Now())
			}
			c.membuf.Put(item, entry)
			qr.airIdx++
			qr.pc = qrAirWait

		case qrDone:
			qr.rec.Remote = qr.remote || len(qr.fromAir) > 0 || qr.peerRadio
			qr.rec.CompletedAt = m.Now()
			c.m.RecordQuery(qr.issuedAt, m.Now(), qr.remote, !qr.connected)
			if c.tracer != nil {
				c.tracer.Query(qr.rec)
			}
			qr.pc = qrProbe
			return true
		}
	}
}
