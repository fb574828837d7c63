package pipeline

import (
	"math/bits"
)

// Event-driven issue scheduling.
//
// The issue stage selects, each cycle, the oldest issue-queue occupants
// whose inputs and memory-scheduling gates are satisfied (ready), subject to
// per-class port budgets and the issue width. Polling every occupant every
// cycle would dominate the simulator's cost, so the selection is computed
// from events instead: an instruction dispatched into the issue queue
// registers a wakeup on each condition that blocks it (an incomplete
// producer, a store it must wait for, a store-sequence number that must
// reach the data cache), and the conditions mark it candidate-ready as they
// resolve. Ready candidates live in a bitmap indexed by window-ring slot
// (seq & seqMask — the window ring has power-of-two capacity and contiguous
// sequence numbers, so the mapping is unique per window occupant and rotates
// with the window), and the issue pass walks only set bits, in age order,
// with trailing-zero scans.
//
// Selection equals that of an oldest-first scan over the whole issue queue:
// every blocking condition is monotone within one window occupancy, except
// the associative multi-source hold, whose loads are therefore re-polled
// every cycle and re-verified at selection (msGate below). The scan survives
// as a differential oracle in sched_oracle_test.go, which checks the two
// agree every cycle.
//
// Stale references are tolerated everywhere: a schedRef pins a specific
// occupancy of an inflight record via its generation counter, so entries
// left behind by a squash are recognised and dropped lazily.

// schedRef pins one occupancy of an inflight record. seq is captured at
// registration time so ordered structures stay ordered even after the
// record is recycled for a younger instruction.
type schedRef struct {
	in  *inflight
	seq uint64
	gen uint64
}

func (r schedRef) valid() bool { return r.in.gen == r.gen }

// ssnWaiter is one load waiting for ssnInDCache to reach ssn (the delay gate
// and the perfect-scheduling commit gate); the waiters form a min-heap on
// ssn, drained as committed stores' writes become visible.
type ssnWaiter struct {
	ssn uint64
	ref schedRef
}

// schedDispatch evaluates a freshly dispatched issue-queue occupant: ready
// instructions enter the ready queue immediately, blocked ones register
// wakeups on their blocking conditions. The evaluation fuses ready()'s
// clauses with the registration pass — each blocking clause is tested once,
// and registered at the moment it is found to block.
func (s *Simulator) schedDispatch(in *inflight) {
	ref := schedRef{in: in, seq: in.seq, gen: in.gen}
	blocked := false
	reg := func(seq uint64) {
		if !s.producerDone(seq) {
			blocked = true
			if p := s.find(seq); p != nil {
				p.wake = append(p.wake, ref)
			}
		}
	}
	if in.port == portLoad {
		reg(in.srcSeqs[0])
		if in.waitExecSeq != 0 {
			reg(in.waitExecSeq)
		}
		if in.waitCommitSSN != 0 && in.waitCommitSSN > s.ssnInDCache {
			blocked = true
			s.ssnWaitPush(in.waitCommitSSN, ref)
		}
		if s.cfg.LSQ == LSQAssociative {
			if dep := in.dyn.Dep; dep.Exists && dep.MultiSource {
				// The multi-source hold is non-monotone: it can close after
				// dispatch, so the load is re-verified at selection (msFlip)
				// and re-polled every cycle while it holds its IQ entry.
				in.msFlip = true
				in.inMSGate = true
				s.msGate = append(s.msGate, ref)
				if dep.SSN > s.ssnInDCache {
					depIn := s.find(dep.Seq)
					if depIn == nil || depIn.storeExecuted {
						blocked = true
					}
				}
			}
		}
	} else {
		reg(in.srcSeqs[0])
		reg(in.srcSeqs[1])
	}
	if !blocked {
		s.pushReady(in)
	}
}

// schedRegisterWaits registers in on every condition that currently blocks
// it. Each condition mirrors one clause of ready(): any clause that can hold
// an instruction must have a wakeup here, or the instruction would sleep
// forever. The associative multi-source hold is the one non-monotone clause
// (a load can turn un-ready when its conflicting store executes), so those
// loads go to the per-cycle msGate poll instead of a one-shot wakeup.
func (s *Simulator) schedRegisterWaits(in *inflight) {
	ref := schedRef{in: in, seq: in.seq, gen: in.gen}
	reg := func(seq uint64) {
		if seq == 0 {
			return
		}
		if p := s.find(seq); p != nil && !p.completed {
			p.wake = append(p.wake, ref)
		}
	}
	if in.isLoad() {
		reg(in.srcSeqs[0])
		if in.waitExecSeq != 0 {
			reg(in.waitExecSeq)
		}
		if in.waitCommitSSN != 0 && in.waitCommitSSN > s.ssnInDCache {
			s.ssnWaitPush(in.waitCommitSSN, ref)
		}
		if s.cfg.LSQ == LSQAssociative {
			if dep := in.dyn.Dep; dep.Exists && dep.MultiSource && !in.inMSGate {
				in.inMSGate = true
				s.msGate = append(s.msGate, ref)
			}
		}
		return
	}
	reg(in.srcSeqs[0])
	reg(in.srcSeqs[1])
}

// wakeConsumers re-evaluates every instruction registered on p after p
// completes. An instruction still blocked by another condition stays
// registered there; the list is one-shot and cleared.
func (s *Simulator) wakeConsumers(p *inflight) {
	if len(p.wake) == 0 {
		return
	}
	for _, ref := range p.wake {
		in := ref.in
		if !ref.valid() || in.issued || !in.holdsIQ || in.inReadyQ {
			continue
		}
		if s.ready(in) {
			s.pushReady(in)
		}
	}
	p.wake = p.wake[:0]
}

// drainSSNWaiters wakes loads whose awaited store sequence number has
// reached the data cache. Called at the start of the issue pass, after
// drainDCacheWrites advanced ssnInDCache this cycle, so a load unblocked
// this cycle is a candidate for this cycle's selection.
func (s *Simulator) drainSSNWaiters() {
	for len(s.ssnWaiters) > 0 && s.ssnWaiters[0].ssn <= s.ssnInDCache {
		ref := s.ssnWaitPop()
		in := ref.in
		if !ref.valid() || in.issued || !in.holdsIQ || in.inReadyQ {
			continue
		}
		if s.ready(in) {
			s.pushReady(in)
		}
	}
}

// markCompleted mirrors in.completed into the completed bitmap, which gives
// producerDone a one-load answer.
func (s *Simulator) markCompleted(in *inflight) {
	idx := in.seq & s.seqMask
	s.complBits[idx>>6] |= 1 << (idx & 63)
}

// clearCompletedBit resets the completed bit of a window slot when a new
// occupant (with the same seq & seqMask) is fetched into it.
func (s *Simulator) clearCompletedBit(seq uint64) {
	idx := seq & s.seqMask
	s.complBits[idx>>6] &^= 1 << (idx & 63)
}

// pushReady marks an instruction candidate-ready: its window-ring slot's bit
// is set in the ready bitmap. O(1), no ordering work — the bitmap is
// inherently seq-ordered.
func (s *Simulator) pushReady(in *inflight) {
	if in.inReadyQ {
		return
	}
	in.inReadyQ = true
	s.readyCount++
	idx := in.seq & s.seqMask
	s.readyBits[idx>>6] |= 1 << (idx & 63)
}

// clearReady removes an instruction from the ready bitmap (at issue, squash,
// or a revoked multi-source wakeup). Safe to call for instructions that are
// not candidates.
func (s *Simulator) clearReady(in *inflight) {
	if !in.inReadyQ {
		return
	}
	in.inReadyQ = false
	s.readyCount--
	idx := in.seq & s.seqMask
	s.readyBits[idx>>6] &^= 1 << (idx & 63)
}

// issueFast is the issue stage: it selects up to IssueWidth ready
// instructions per cycle, oldest first, subject to per-class port limits,
// and begins their execution. Selection walks the candidate-ready bitmap
// instead of scanning the issue queue.
func (s *Simulator) issueFast() {
	// Committed store data became visible in drainDCacheWrites at the top of
	// this cycle; wake the loads whose SSN gates it satisfied so they are
	// candidates this cycle.
	s.drainSSNWaiters()

	// Multi-source-gated loads re-poll every cycle (see schedRegisterWaits).
	for i := 0; i < len(s.msGate); {
		ref := s.msGate[i]
		in := ref.in
		if !ref.valid() || in.issued || !in.holdsIQ {
			if ref.valid() {
				in.inMSGate = false
			}
			s.msGate[i] = s.msGate[len(s.msGate)-1]
			s.msGate = s.msGate[:len(s.msGate)-1]
			continue
		}
		if !in.inReadyQ && s.ready(in) {
			s.pushReady(in)
		}
		i++
	}

	// No candidates at all (a stall cycle): skip the bitmap walk.
	if s.readyCount == 0 {
		s.res.IdleIssueCycles++
		return
	}

	var ports [portNone + 1]int
	ports[portSimple] = s.cfg.SimpleIntPorts
	ports[portComplex] = s.cfg.ComplexPorts
	ports[portBranch] = s.cfg.BranchPorts
	ports[portLoad] = s.cfg.LoadPorts
	ports[portStore] = s.cfg.StorePorts
	issued := 0
	// Walk the ready bitmap in age order: the window's oldest slot is
	// start = frontSeq & seqMask, and slots wrap around the ring, so the
	// scan covers the words from start upward and then the wrapped low bits
	// of the starting word. Bits are cleared eagerly (issue, squash,
	// revoked wakeup), so every set bit is a live candidate.
	if s.window.len() > 0 {
		start := s.window.front().seq & s.seqMask
		w0 := int(start >> 6)
		b0 := uint(start & 63)
		nw := len(s.readyBits)
		for wi := 0; wi < nw && issued < s.cfg.IssueWidth; wi++ {
			w := w0 + wi
			if w >= nw {
				w -= nw
			}
			word := s.readyBits[w]
			if wi == 0 {
				word &= ^uint64(0) << b0
			}
			issued = s.issueReadyWord(word, w, start, &ports, issued)
		}
		if issued < s.cfg.IssueWidth && b0 != 0 {
			issued = s.issueReadyWord(s.readyBits[w0]&(1<<b0-1), w0, start, &ports, issued)
		}
	}
	if issued == 0 {
		s.res.IdleIssueCycles++
	}
}

// issueReadyWord issues candidates from one ready-bitmap word, oldest first,
// until the issue width is exhausted; returns the updated issue count.
func (s *Simulator) issueReadyWord(word uint64, w int, start uint64, ports *[portNone + 1]int, issued int) int {
	for word != 0 && issued < s.cfg.IssueWidth {
		b := bits.TrailingZeros64(word)
		word &= word - 1
		idx := uint64(w)<<6 | uint64(b)
		in := s.window.at(int((idx - start) & s.seqMask))
		if ports[in.port] <= 0 {
			continue // port-limited: the bit stays set for next cycle
		}
		// Readiness is monotone for everything except multi-source-gated
		// loads, so only those re-verify at selection. A gate that closed
		// between wakeup and selection drops the candidate and re-registers
		// its waits.
		if in.msFlip && !s.ready(in) {
			s.clearReady(in)
			s.schedRegisterWaits(in)
			continue
		}
		s.clearReady(in)
		s.doIssue(in)
		ports[in.port]--
		issued++
	}
	return issued
}

// ssnWaitPush adds a waiter to the ssn min-heap.
func (s *Simulator) ssnWaitPush(ssn uint64, ref schedRef) {
	s.ssnWaiters = append(s.ssnWaiters, ssnWaiter{ssn: ssn, ref: ref})
	i := len(s.ssnWaiters) - 1
	for i > 0 {
		p := (i - 1) / 2
		if s.ssnWaiters[p].ssn <= s.ssnWaiters[i].ssn {
			break
		}
		s.ssnWaiters[p], s.ssnWaiters[i] = s.ssnWaiters[i], s.ssnWaiters[p]
		i = p
	}
}

// ssnWaitPop removes and returns the minimum-ssn waiter.
func (s *Simulator) ssnWaitPop() schedRef {
	h := s.ssnWaiters
	ref := h[0].ref
	n := len(h) - 1
	h[0] = h[n]
	s.ssnWaiters = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		min := i
		if l < n && h[l].ssn < h[min].ssn {
			min = l
		}
		if r < n && h[r].ssn < h[min].ssn {
			min = r
		}
		if min == i {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return ref
}
