package pipeline

// doIssue starts executing an instruction and schedules its completion.
// The instruction's issue-queue entry is freed here: selection removes the
// instruction from the scheduler. Stores hold no entry and never issue.
func (s *Simulator) doIssue(in *inflight) {
	in.issued = true
	if in.holdsIQ {
		s.iqUsed--
		in.holdsIQ = false
	}
	var lat int
	if in.isLoad() {
		lat = s.loadLatency(in.dyn.EffAddr())
		s.resolveLoadValue(in)
	} else {
		lat = in.st.ExecLatency()
	}
	s.scheduleCompletion(in, s.now+uint64(lat))
}

// resolveLoadValue determines, from the oracle dependence information,
// whether the value the load obtains in the out-of-order core is correct, and
// what its SVW non-vulnerability SSN is.
func (s *Simulator) resolveLoadValue(in *inflight) {
	dep := in.dyn.Dep()
	if !dep.Exists || dep.SSN <= s.ssnInDCache {
		// The communicating store (if any) has already drained to the data
		// cache: the cache read returns the right value.
		in.ssnNVul = s.ssnInDCache
		return
	}
	// The communicating store is still in flight (or at least not yet in the
	// data cache) at the time of the cache read.
	if s.cfg.Kind.storeQueue() {
		// Conventional forwarding from the store queue: from an executed
		// store, or from one that has retired while its write still drains
		// through the back-end data-cache stage (the store queue drains at
		// commit, so it still holds the value).
		if depIn := s.find(dep.Seq); depIn == nil || depIn.completed && !dep.MultiSource {
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
// are kept in seq order (see scheduleCompletion), and producers are always
// older than their consumers, so the observable update order matches the
// window scan this replaces.
func (s *Simulator) complete() {
	bucket := &s.compBuckets[s.now&s.compMask]
	if events := *bucket; len(events) > 0 {
		for _, ev := range events {
			in := s.occupant(ev)
			if in == nil {
				continue // the occupant was squashed; the event is stale
			}
			s.active = true
			s.markCompleted(in)
			if st := in.st; st.IsBranch() {
				s.bp.Resolve(st, in.dyn.Taken(), in.dyn.NextPC(), in.bpPred)
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

	if !s.cfg.Kind.storeQueue() {
		return
	}
	kept := s.pendingStores[:0]
	for _, seq := range s.pendingStores {
		in := s.window.slot(seq)
		if s.producerDone(in.srcSeqs[0]) && s.producerDone(in.srcSeqs[1]) {
			s.active = true
			s.markCompleted(in)
			s.ss.StoreCompleted(in.st.PC, in.ssn)
			s.wakeConsumers(in)
			continue
		}
		kept = append(kept, seq)
	}
	s.pendingStores = kept
}
