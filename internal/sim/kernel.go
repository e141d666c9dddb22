// Package sim is a process-oriented discrete-event simulation kernel.
//
// It is the substitute for CSIM, the proprietary simulation library the
// paper's evaluation is built on. The modelling primitives mirror CSIM's:
//
//   - a Kernel owns the virtual clock and the future event list;
//   - a Machine is a simulated actor written as a resumable state machine:
//     its Step callback runs inline on the kernel's dispatch loop at every
//     wake, advances virtual time with Hold/HoldUntil, and contends for
//     facilities with Resource.AcquireCall. Every simulated client, the
//     servers it calls into, and the report broadcasters run this way;
//   - a Proc is the same actor written as straight-line code on its own
//     goroutine (Hold, Resource.Acquire/Use). The kernel, resource and
//     M/M/1 tests drive it; the simulator spawns none;
//   - a Resource is a FCFS facility (wireless channel, disk arm, ...) with
//     fixed capacity, utilization accounting, and queue statistics.
//
// Determinism: exactly one actor runs at any instant. A Machine step runs
// to completion on the dispatch loop's stack; a Proc is resumed and the
// kernel blocks until it yields (by holding, queueing on a resource, or
// terminating). Machines and Procs share one schedule-sequence counter, and
// events at equal timestamps are dispatched in schedule order. Simulations
// are therefore exactly reproducible for a given seed, which the tests and
// EXPERIMENTS.md rely on.
//
// Performance: the future event list is a concrete binary heap over
// []event values — no per-event heap allocation and no interface boxing on
// the push/pop path (container/heap costs one *event allocation plus an
// interface conversion per event). The heap's backing array doubles as the
// event free-list: pops only shrink the length, so the storage of retired
// events is reused by subsequent pushes, and Drain keeps the capacity for
// kernels that are reused across Run calls. Resuming a Machine is a method
// call; resuming a Proc is a cap-1 channel handoff (the strict alternation
// discipline keeps at most one token in flight, so each kernel<->proc
// switch costs a single blocking rendezvous).
package sim

import (
	"fmt"
	"math"
	"sort"
)

// event is a future-event-list entry: "resume proc", "step machine", or
// "call fn".
type event struct {
	at   float64
	seq  uint64 // schedule order; ties broken FIFO
	proc *Proc
	mach *Machine
	gen  uint64 // machine wake generation; stale wakes are skipped
	fn   func()
}

// before reports whether e sorts ahead of f on the future event list:
// min (at, seq). seq is unique, so the order is total.
func (e *event) before(f *event) bool {
	if e.at != f.at {
		return e.at < f.at
	}
	return e.seq < f.seq
}

// Kernel drives a single simulation run. The zero value is not usable;
// construct with NewKernel.
type Kernel struct {
	now     float64
	seq     uint64
	events  []event // binary min-heap on (at, seq)
	yield   chan struct{}
	live    map[*Proc]struct{}
	liveM   map[*Machine]struct{}
	nsteps  uint64
	procSeq uint64 // spawn sequence (procs and machines); orders Drain
}

// NewKernel returns a kernel with the clock at zero and an empty event list.
func NewKernel() *Kernel {
	return &Kernel{
		// cap 1: the kernel<->proc alternation keeps at most one token in
		// flight, so yields never block the sender.
		yield: make(chan struct{}, 1),
		live:  make(map[*Proc]struct{}),
		liveM: make(map[*Machine]struct{}),
	}
}

// Now returns the current virtual time in seconds.
func (k *Kernel) Now() float64 { return k.now }

// Steps returns the number of events dispatched so far. It is exposed for
// kernel benchmarks and runaway-simulation guards in tests.
func (k *Kernel) Steps() uint64 { return k.nsteps }

// push appends ev to the heap and restores the heap invariant (sift-up).
func (k *Kernel) push(ev event) {
	h := append(k.events, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h[i].before(&h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	k.events = h
}

// pop removes and returns the minimum event (sift-down). The vacated tail
// slot is zeroed so retired closures and procs are collectable; the backing
// array itself is retained as the free-list for future pushes.
func (k *Kernel) pop() event {
	h := k.events
	min := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h[n] = event{}
	h = h[:n]
	i := 0
	for {
		left := 2*i + 1
		if left >= n {
			break
		}
		least := left
		if right := left + 1; right < n && h[right].before(&h[left]) {
			least = right
		}
		if !h[least].before(&h[i]) {
			break
		}
		h[i], h[least] = h[least], h[i]
		i = least
	}
	k.events = h
	return min
}

// schedule appends an event to the future event list.
func (k *Kernel) schedule(at float64, p *Proc, fn func()) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (at=%g, now=%g)", at, k.now))
	}
	k.seq++
	k.push(event{at: at, seq: k.seq, proc: p, fn: fn})
}

// scheduleMachine appends a machine wake to the future event list. It
// shares the sequence counter with schedule, so proc resumes, machine
// steps, and fn timers interleave in one global FIFO order at equal
// times — the property the two execution engines' byte-identity rests on.
func (k *Kernel) scheduleMachine(at float64, m *Machine) {
	if at < k.now {
		panic(fmt.Sprintf("sim: scheduling into the past (at=%g, now=%g)", at, k.now))
	}
	k.seq++
	k.push(event{at: at, seq: k.seq, mach: m, gen: m.wakeGen})
}

// After schedules fn to run at now+d in kernel context. fn must not block;
// it is intended for lightweight timers (statistics sampling, LRD aging).
func (k *Kernel) After(d float64, fn func()) {
	if d < 0 {
		d = 0
	}
	k.schedule(k.now+d, nil, fn)
}

// At schedules fn to run at absolute time t (clamped to now) in kernel
// context. fn must not block.
func (k *Kernel) At(t float64, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.schedule(t, nil, fn)
}

// Spawn creates a process that starts at the current virtual time.
// The body runs in its own goroutine but under the kernel's one-runnable
// discipline; it may call Hold, Acquire, and friends.
func (k *Kernel) Spawn(name string, body func(*Proc)) *Proc {
	return k.SpawnAt(k.now, name, body)
}

// SpawnAt creates a process that starts at virtual time t (clamped to now).
func (k *Kernel) SpawnAt(t float64, name string, body func(*Proc)) *Proc {
	if body == nil {
		panic("sim: SpawnAt with nil body")
	}
	if t < k.now {
		t = k.now
	}
	k.procSeq++
	p := &Proc{
		kernel: k,
		name:   name,
		body:   body,
		seq:    k.procSeq,
		resume: make(chan struct{}, 1),
	}
	k.live[p] = struct{}{}
	k.schedule(t, p, nil)
	return p
}

// Run dispatches events until the event list is empty or the clock would
// pass `until`. It returns the final clock value. Processes still blocked
// when Run returns remain suspended; call Drain to terminate them.
func (k *Kernel) Run(until float64) float64 {
	for len(k.events) > 0 {
		if k.events[0].at > until {
			k.now = until
			return k.now
		}
		ev := k.pop()
		k.now = ev.at
		k.nsteps++
		switch {
		case ev.fn != nil:
			ev.fn()
		case ev.mach != nil:
			// Machine step: runs inline on this stack. Stale wakes
			// (superseded by a newer Hold or revoked by CancelWake) and
			// wakes of finished/killed machines are skipped.
			m := ev.mach
			if m.done || m.killed || ev.gen != m.wakeGen {
				continue
			}
			m.body.Step(m)
		case ev.proc != nil:
			p := ev.proc
			if p.done || p.killed {
				continue
			}
			if !p.started {
				p.started = true
				go p.run()
			} else {
				p.resume <- struct{}{}
			}
			<-k.yield
		}
	}
	return k.now
}

// RunAll dispatches events until the event list is empty.
func (k *Kernel) RunAll() float64 { return k.Run(math.Inf(1)) }

// Drain terminates every live process and state machine. Suspended
// processes are woken with a kill flag and unwind via a recovered panic;
// processes that have not yet started are simply discarded. Machines are
// killed in place — no unwind is needed because a suspended machine holds
// no stack. Procs and machines are killed in one interleaved spawn order
// (they share the spawn-sequence counter), so the side effects of
// kill-unwind (deferred cleanup, resource releases) are reproducible run
// to run regardless of engine mix. Call it once per simulation after Run
// so no goroutines outlive the run.
func (k *Kernel) Drain() {
	type victim struct {
		seq  uint64
		proc *Proc
		mach *Machine
	}
	victims := make([]victim, 0, len(k.live)+len(k.liveM))
	for p := range k.live {
		victims = append(victims, victim{seq: p.seq, proc: p})
	}
	for m := range k.liveM {
		victims = append(victims, victim{seq: m.seq, mach: m})
	}
	sort.Slice(victims, func(i, j int) bool { return victims[i].seq < victims[j].seq })
	for _, v := range victims {
		if m := v.mach; m != nil {
			if !m.done {
				m.killed = true
			}
			delete(k.liveM, m)
			continue
		}
		p := v.proc
		if p.done {
			delete(k.live, p)
			continue
		}
		p.killed = true
		if p.started {
			p.resume <- struct{}{}
			<-k.yield
		}
		delete(k.live, p)
	}
	// Discard the remaining future events; the simulation is over. The
	// backing array is kept (length 0) so a reused kernel starts with a
	// warm free-list.
	for i := range k.events {
		k.events[i] = event{}
	}
	k.events = k.events[:0]
}

// LiveProcs reports the number of processes that have been spawned and have
// not yet terminated.
func (k *Kernel) LiveProcs() int { return len(k.live) }

// LiveMachines reports the number of state machines that have been spawned
// and have not yet finished.
func (k *Kernel) LiveMachines() int { return len(k.liveM) }
