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
// resolve. Ready candidates live in a bitmap indexed by window slot (seq &
// mask — the window has power-of-two capacity and contiguous sequence
// numbers, so the mapping is unique per window occupant and rotates with the
// window), and the issue pass walks only set bits, in age order, with
// trailing-zero scans.
//
// Selection equals that of an oldest-first scan over the whole issue queue:
// every blocking condition is monotone within one window occupancy, except
// the associative multi-source hold, whose loads are therefore re-polled
// every cycle and re-verified at selection (the msGate poll; see gate). The
// scan survives as a differential oracle in sched_oracle_test.go, which
// checks the two agree every cycle.
//
// Stale references are tolerated everywhere: a schedRef pins a specific
// occupancy of a window slot via its generation counter, so entries left
// behind by a squash are recognised and dropped lazily.

// schedRef pins one occupancy of a window slot: the occupant's sequence
// number, which names the slot, and the slot's generation while it stays.
// Wake lists, the SSN heap, the msGate poll and the completion buckets hold
// them.
type schedRef struct {
	seq uint64
	gen uint64
}

// occupant returns the record ref pins, or nil once that occupancy has
// ended.
func (s *Simulator) occupant(ref schedRef) *inflight {
	if in := s.window.slot(ref.seq); in.gen == ref.gen {
		return in
	}
	return nil
}

// ssnWaiter is one load waiting for ssnInDCache to reach ssn (the delay gate
// and the perfect-scheduling commit gate); the waiters form a min-heap on
// ssn, drained as committed stores' writes become visible.
type ssnWaiter struct {
	ssn uint64
	ref schedRef
}

// ref pins the record's current occupancy.
func (in *inflight) ref() schedRef { return schedRef{seq: in.seq, gen: in.gen} }

// gate reports whether every issue gate of an issue-queue occupant is open.
// Every occupant needs its register sources produced; a load needs only its
// base address register, plus three memory gates: the store its StoreSets or
// oracle hold names must have executed, the store its delay or partial-word
// hold names must have reached the data cache, and the associative store
// queue's multi-source hold must have cleared.
//
// Without wait, gate stops at the first closed gate. With wait, it registers
// a wakeup on every closed gate — the producer's wake list or the SSN heap —
// and puts a multi-source load on the msGate poll whether or not its hold is
// closed now, because that hold is the one gate that can close again after
// it opens. Every gate tested here therefore has its wakeup registered here,
// which is what keeps a blocked occupant from sleeping forever.
func (s *Simulator) gate(in *inflight, wait bool) bool {
	open := s.produced(in, in.srcSeqs[0], wait)
	if !open && !wait {
		return false
	}
	if !in.isLoad() {
		return s.produced(in, in.srcSeqs[1], wait) && open
	}
	// StoreSets or oracle hold: the store has executed once it completes or
	// leaves the window, exactly produced's answer.
	if !s.produced(in, in.waitExecSeq, wait) {
		if !wait {
			return false
		}
		open = false
	}
	// Delay hold or partial-word stall.
	if in.waitCommitSSN > s.ssnInDCache {
		if !wait {
			return false
		}
		open = false
		s.ssnWaitPush(in.waitCommitSSN, in.ref())
	}
	// The associative store queue finds a partial (multi-source) overlap in
	// its search and holds the load until the stores drain; the hold is
	// closed once the youngest overlapping store has executed.
	if s.cfg.Kind.storeQueue() {
		if dep := in.dyn.Dep(); dep.Exists && dep.MultiSource {
			if wait && !in.inMSGate {
				in.inMSGate = true
				s.msGate = append(s.msGate, in.ref())
			}
			if dep.SSN > s.ssnInDCache {
				if depIn := s.find(dep.Seq); depIn == nil || depIn.completed {
					return false
				}
			}
		}
	}
	return open
}

// produced reports whether the instruction seq (0 = none) has completed or
// left the window; with wait, an unproduced seq gets in on its wake list.
func (s *Simulator) produced(in *inflight, seq uint64, wait bool) bool {
	if s.producerDone(seq) {
		return true
	}
	if wait {
		if p := s.find(seq); p != nil {
			p.wake = append(p.wake, in.ref())
		}
	}
	return false
}

// wake re-evaluates a registered issue-queue occupant's gates and makes it a
// candidate once they are all open. A stale or already-issued reference is
// dropped; an occupant still blocked stays registered on its other gates.
func (s *Simulator) wake(ref schedRef) {
	in := s.occupant(ref)
	if in != nil && !in.issued && in.holdsIQ && !in.inReadyQ && s.gate(in, false) {
		s.pushReady(in)
	}
}

// wakeConsumers wakes every occupant registered on p after p completes; the
// list is one-shot and cleared.
func (s *Simulator) wakeConsumers(p *inflight) {
	for _, ref := range p.wake {
		s.wake(ref)
	}
	p.wake = p.wake[:0]
}

// drainSSNWaiters wakes loads whose awaited store sequence number has
// reached the data cache. Called at the start of the issue pass, after
// drainDCacheWrites advanced ssnInDCache this cycle, so a load unblocked
// this cycle is a candidate for this cycle's selection.
func (s *Simulator) drainSSNWaiters() {
	for len(s.ssnWaiters) > 0 && s.ssnWaiters[0].ssn <= s.ssnInDCache {
		s.active = true
		s.wake(s.ssnWaitPop())
	}
}

// markCompleted marks an instruction completed, in the record and in the
// completed bitmap, which gives producerDone a one-load answer.
func (s *Simulator) markCompleted(in *inflight) {
	in.completed = true
	idx := in.seq & s.window.mask
	s.complBits[idx>>6] |= 1 << (idx & 63)
}

// clearCompletedBit resets the completed bit of a window slot when a new
// occupant (with the same seq & mask) is fetched into it.
func (s *Simulator) clearCompletedBit(seq uint64) {
	idx := seq & s.window.mask
	s.complBits[idx>>6] &^= 1 << (idx & 63)
}

// pushReady marks an instruction candidate-ready: its window slot's bit is
// set in the ready bitmap. O(1), no ordering work — the bitmap is inherently
// seq-ordered.
func (s *Simulator) pushReady(in *inflight) {
	if in.inReadyQ {
		return
	}
	s.active = true
	in.inReadyQ = true
	s.readyCount++
	idx := in.seq & s.window.mask
	s.readyBits[idx>>6] |= 1 << (idx & 63)
}

// clearReady removes an instruction from the ready bitmap (at issue, squash,
// or a revoked multi-source wakeup). Safe to call for instructions that are
// not candidates.
func (s *Simulator) clearReady(in *inflight) {
	if !in.inReadyQ {
		return
	}
	s.active = true
	in.inReadyQ = false
	s.readyCount--
	idx := in.seq & s.window.mask
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

	// Multi-source-gated loads re-poll every cycle (see gate).
	for i := 0; i < len(s.msGate); {
		ref := s.msGate[i]
		in := s.occupant(ref)
		if in == nil || in.issued || !in.holdsIQ {
			if in != nil {
				in.inMSGate = false
			}
			s.active = true
			s.msGate[i] = s.msGate[len(s.msGate)-1]
			s.msGate = s.msGate[:len(s.msGate)-1]
			continue
		}
		s.wake(ref)
		i++
	}

	// No candidates at all (a stall cycle): skip the bitmap walk.
	if s.readyCount == 0 {
		s.res.IdleIssueCycles++
		s.perCycle |= cycIdleIssue
		return
	}

	ports := issuePorts
	issued := 0
	// Walk the ready bitmap in age order: the window's oldest slot is
	// start = head & mask, and slots wrap around the array, so the scan
	// covers the words from start upward and then the wrapped low bits of
	// the starting word. Bits are cleared eagerly (issue, squash, revoked
	// wakeup), so every set bit is a live candidate.
	if s.window.len() > 0 {
		start := s.window.head & s.window.mask
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
			issued = s.issueReadyWord(word, w, &ports, issued)
		}
		if issued < s.cfg.IssueWidth && b0 != 0 {
			issued = s.issueReadyWord(s.readyBits[w0]&(1<<b0-1), w0, &ports, issued)
		}
	}
	if issued == 0 {
		s.res.IdleIssueCycles++
		s.perCycle |= cycIdleIssue
	}
}

// issueReadyWord issues candidates from one ready-bitmap word, oldest first,
// until the issue width is exhausted; returns the updated issue count.
func (s *Simulator) issueReadyWord(word uint64, w int, ports *[portStore]int, issued int) int {
	for word != 0 && issued < s.cfg.IssueWidth {
		b := bits.TrailingZeros64(word)
		word &= word - 1
		in := &s.window.slots[w<<6|b]
		if ports[in.port] <= 0 {
			continue // port-limited: the bit stays set for next cycle
		}
		// Readiness is monotone for everything except multi-source-gated
		// loads (the msGate poll's members), so only those re-verify at
		// selection. A gate that closed between wakeup and selection drops
		// the candidate and re-registers its waits.
		if in.inMSGate && !s.gate(in, true) {
			s.clearReady(in)
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
