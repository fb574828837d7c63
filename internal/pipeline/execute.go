package pipeline

import (
	"cmp"
	"slices"
)

// ready reports whether an instruction's register inputs and memory-
// scheduling gates allow it to issue this cycle.
func (s *Simulator) ready(in *inflight) bool {
	switch {
	case in.isLoad():
		// Loads need only their base address register.
		if !s.producerDone(in.srcSeqs[0]) {
			return false
		}
		// Scheduling gate: wait for a specific older store to execute
		// (StoreSets / perfect scheduling). The store has executed once it
		// completes or leaves the window — exactly producerDone's answer.
		if in.waitExecSeq != 0 && !s.producerDone(in.waitExecSeq) {
			return false
		}
		// Delay gate / partial-word stall: wait for a store to reach the
		// data cache.
		if in.waitCommitSSN != 0 && in.waitCommitSSN > s.ssnInDCache {
			return false
		}
		// Conventional designs detect partial (multi-source) overlaps during
		// the store-queue search and hold the load until the stores drain;
		// this requires the youngest overlapping store to have executed.
		if s.cfg.LSQ == LSQAssociative {
			dep := in.dyn.Dep
			if dep.Exists && dep.MultiSource && dep.SSN > s.ssnInDCache {
				depIn := s.find(dep.Seq)
				if depIn == nil || depIn.storeExecuted {
					return false
				}
			}
		}
		return true
	case in.isStore():
		// Baseline stores need base address and data.
		return s.producerDone(in.srcSeqs[0]) && s.producerDone(in.srcSeqs[1])
	default:
		return s.producerDone(in.srcSeqs[0]) && s.producerDone(in.srcSeqs[1])
	}
}

// doIssue starts executing an instruction and schedules its completion.
// The instruction's issue-queue entry is freed here: selection removes the
// instruction from the scheduler.
func (s *Simulator) doIssue(in *inflight) {
	in.issued = true
	if in.holdsIQ {
		s.iqUsed--
		in.holdsIQ = false
	}
	st := in.dyn.Static
	switch {
	case in.isLoad():
		lat := s.loadLatency(in.dyn.EffAddr)
		in.completeCycle = s.now + uint64(lat)
		s.resolveLoadValue(in)
	case in.isStore():
		// Baseline store execution: address generation and store-queue write.
		in.completeCycle = s.now + 1
	default:
		in.completeCycle = s.now + uint64(st.ExecLatency())
	}
	s.scheduleCompletion(in)
}

// resolveLoadValue determines, from the oracle dependence information,
// whether the value the load obtains in the out-of-order core is correct, and
// what its SVW non-vulnerability SSN is.
func (s *Simulator) resolveLoadValue(in *inflight) {
	dep := in.dyn.Dep
	if !dep.Exists || dep.SSN <= s.ssnInDCache {
		// The communicating store (if any) has already drained to the data
		// cache: the cache read returns the right value.
		in.ssnNVul = s.ssnInDCache
		return
	}
	// The communicating store is still in flight (or at least not yet in the
	// data cache) at the time of the cache read.
	if s.cfg.LSQ == LSQAssociative {
		depIn := s.find(dep.Seq)
		if depIn != nil && depIn.storeExecuted && !dep.MultiSource {
			// Conventional forwarding from the store queue.
			in.forwarded = true
			in.ssnNVul = dep.SSN
			s.res.SQForwards++
			return
		}
		if depIn == nil {
			// The store has retired but its write is still draining through
			// the back-end data-cache stage; the store queue (which drains at
			// commit) still provides the value.
			in.forwarded = true
			in.ssnNVul = dep.SSN
			s.res.SQForwards++
			return
		}
		// Premature load: the conflicting store has not executed yet.
		in.valueWrong = true
		in.ssnNVul = s.ssnInDCache
		return
	}
	// NoSQ: there is no store queue to forward from; a non-bypassed load
	// whose communicating store has not reached the cache reads a stale
	// value. This is the "should have bypassed" mis-speculation.
	in.valueWrong = true
	in.mispredict = mispredictShouldHaveBypassed
	in.ssnNVul = s.ssnInDCache
}

// complete retires execution results: instructions whose completion cycle has
// arrived wake their dependents, branches resolve (training the branch
// predictor and un-blocking fetch), and baseline stores deposit their address
// and data in the store queue as soon as both operands have been produced
// (the store queue captures them at producer writeback; stores do not consume
// scheduler entries or issue slots).
//
// Issued instructions complete through scheduled events (bucketed by cycle)
// and conventional stores through the pending-store list, so the pass costs
// O(completions + in-flight stores) instead of O(window) per cycle. Events
// are processed in seq order, and producers are always older than their
// consumers, so the observable update order matches the window scan this
// replaces.
func (s *Simulator) complete() {
	bucket := &s.compBuckets[s.now&s.compMask]
	if events := *bucket; len(events) > 0 {
		slices.SortFunc(events, func(a, b compEvent) int {
			return cmp.Compare(a.seq, b.seq)
		})
		for _, ev := range events {
			in := ev.in
			if in.gen != ev.gen || !in.issued || in.completed {
				continue // the occupant was squashed; the event is stale
			}
			in.completed = true
			s.markCompleted(in)
			st := in.dyn.Static
			switch {
			case in.isStore():
				in.storeExecuted = true
				if s.cfg.LSQ == LSQAssociative {
					s.ss.StoreCompleted(st.PC, in.ssn)
				}
			case st.IsBranch():
				s.bp.Resolve(st, in.dyn.Taken, in.dyn.NextPC, in.bpPred)
				if in.brMispredicted {
					s.res.BranchMispredicts++
					if s.fetchBlockedOn == in.seq {
						s.fetchBlockedOn = 0
						if s.fetchResumeCycle < s.now+1 {
							s.fetchResumeCycle = s.now + 1
						}
					}
				}
			}
			s.wakeConsumers(in)
		}
		*bucket = events[:0]
	}

	if s.cfg.LSQ != LSQAssociative {
		return
	}
	kept := s.pendingStores[:0]
	for _, in := range s.pendingStores {
		if s.producerDone(in.srcSeqs[0]) && s.producerDone(in.srcSeqs[1]) {
			in.completed = true
			s.markCompleted(in)
			in.completeCycle = s.now
			in.storeExecuted = true
			s.ss.StoreCompleted(in.dyn.Static.PC, in.ssn)
			s.wakeConsumers(in)
			continue
		}
		kept = append(kept, in)
	}
	s.pendingStores = kept
}
