package pipeline

import (
	"repro/internal/bypass"
)

// flushRecoveryBubble is the number of cycles between a value-misspeculation
// flush at commit and the restart of fetch (map-table and free-list repair).
const flushRecoveryBubble = 3

// commitEnter moves up to CommitWidth completed instructions per cycle from
// the head of the window into the in-order back-end (commit) pipeline. This
// is where the paper's Table 2 and Table 4 actions happen: stores update the
// T-SSBF and are scheduled to write the data cache; loads perform their SVW
// filter test and, when it fails, are scheduled to re-execute on the shared
// back-end data-cache port.
func (s *Simulator) commitEnter() {
	for entered := 0; entered < s.cfg.CommitWidth; entered++ {
		idx := s.backendQ.len()
		if idx >= s.window.len() {
			return
		}
		in := s.window.at(idx)
		if !in.renamed || !in.completed || in.inBackend {
			return
		}
		s.enterBackend(in)
	}
}

func (s *Simulator) enterBackend(in *inflight) {
	in.inBackend = true
	exit := s.now + uint64(s.cfg.BackendDepth)
	dcStage := uint64(s.cfg.BackendDCacheStage)
	tailStages := uint64(s.cfg.BackendDepth - s.cfg.BackendDCacheStage)

	switch {
	case in.isStore():
		addr := in.dyn.EffAddr
		s.tssbf.StoreCommit(addr, in.ssn, in.dyn.MemSize)
		// The store's data-cache write shares the single back-end port.
		dcCycle := s.now + dcStage
		if dcCycle < s.nextBackendDC {
			dcCycle = s.nextBackendDC
		}
		s.nextBackendDC = dcCycle + 1
		s.l1d.Access(addr, true)
		s.dtlb.Access(addr)
		s.pendingDCWrites = append(s.pendingDCWrites, pendingWrite{ssn: in.ssn, cycle: dcCycle})
		exit = dcCycle + tailStages

	case in.isLoad():
		addr := in.dyn.EffAddr
		if in.bypassed {
			in.reexec = s.tssbf.TestBypassed(addr, in.dyn.MemSize, in.bypassSSN, in.predShift)
		} else {
			in.reexec = s.tssbf.TestNonBypassed(addr, in.ssnNVul)
		}
		if in.reexec {
			s.res.DCacheBackendReads++
			s.res.Reexecutions++
			dcCycle := s.now + dcStage
			if dcCycle < s.nextBackendDC {
				dcCycle = s.nextBackendDC
			}
			s.nextBackendDC = dcCycle + 1
			s.l1d.Access(addr, false)
			s.dtlb.Access(addr)
			exit = dcCycle + tailStages
		}
	}

	// Retirement must remain in order.
	if s.backendQ.len() > 0 && exit < s.backendQ.back().exitCycle {
		exit = s.backendQ.back().exitCycle
	}
	in.exitCycle = exit
	s.backendQ.pushBack(in)
}

// retire removes instructions from the back-end pipeline in order as they
// reach its end, releasing their resources, accumulating statistics, training
// the predictors, and — when re-execution revealed a wrong load value —
// flushing the pipeline.
func (s *Simulator) retire() {
	for s.backendQ.len() > 0 {
		in := s.backendQ.front()
		if in.exitCycle > s.now {
			return
		}
		s.backendQ.popFront()
		if s.window.len() == 0 || s.window.front() != in {
			panic("pipeline: retire order does not match window order")
		}
		s.window.popFront()
		s.renamedCount--
		s.robUsed--
		s.releaseResources(in)
		s.histAfterRetired = in.histAfter
		s.committed++
		s.res.Committed++

		flush := false
		switch {
		case in.isStore():
			s.res.CommittedStores++
			s.ssnCommitted = in.ssn
			s.srq.Release(in.ssn)
		case in.isLoad():
			flush = s.retireLoad(in)
		}

		// The record is now reachable from neither the window nor the
		// back-end queue; recycle it before a potential squash so the pool
		// sees it ahead of the squash victims.
		seq := in.seq
		s.recycle(in)

		if flush {
			// Value mis-speculation recovery: squash all younger work and
			// restart fetch after a short recovery bubble (state repair).
			s.squash(seq, s.now+flushRecoveryBubble)
			return
		}
	}
}

// retireLoad performs the commit-time bookkeeping for a load: statistics,
// mis-prediction classification, predictor training, and the flush decision.
func (s *Simulator) retireLoad(in *inflight) (flush bool) {
	s.res.CommittedLoads++
	dep := in.dyn.Dep

	// Table 5's communication-behaviour columns: communication with a store
	// within the last 128 dynamic instructions.
	if dep.Exists && in.seq-dep.Seq <= 128 {
		s.res.InWindowComm++
		if dep.PartialWord {
			s.res.InWindowPartial++
		}
	}
	if in.delayed {
		s.res.DelayedLoads++
	}
	if in.bypassed {
		s.res.BypassedLoads++
	}

	// Establish correctness of bypassed loads (non-bypassed loads determined
	// their correctness when they read the cache). The Perfect SMB
	// configuration bypasses with oracle information and idealised
	// partial-word support, so its bypasses are correct by construction.
	if in.bypassed && s.cfg.Bypass != BypassPerfect {
		correct := dep.Exists && !dep.MultiSource &&
			in.bypassSSN == dep.SSN && in.predShift == dep.Shift
		if !correct {
			in.valueWrong = true
			switch {
			case !dep.Exists || dep.SSN <= in.renSSNCommitted:
				in.mispredict = mispredictShouldNotHaveBypassed
			default:
				in.mispredict = mispredictWrongStore
			}
		}
	}

	switch s.cfg.Bypass {
	case BypassPredictor:
		s.trainBypassPredictor(in)
	case BypassNone:
		if s.cfg.Sched == SchedStoreSets {
			s.trainStoreSets(in)
		}
	}

	// A wrong value is detected by re-execution in the back-end and forces a
	// pipeline flush. (The SVW filter is constructed so that every wrong
	// value re-executes; the oracle check is the flush trigger.)
	return in.valueWrong
}

// trainBypassPredictor applies the commit-time predictor update rules of
// Section 3.3.
func (s *Simulator) trainBypassPredictor(in *inflight) {
	st := in.dyn.Static
	dep := in.dyn.Dep
	if in.mispredict == mispredictNone {
		if in.bypassPred.Hit {
			s.byp.Reward(st.PC, in.histAtDec)
		}
		return
	}
	s.res.BypassMispredictions++
	outcome := bypass.Outcome{}
	if dep.Exists {
		dist, _ := in.dyn.Distance()
		outcome = bypass.Outcome{
			// The dependence is worth bypassing only if the store was still
			// in flight when the load was renamed.
			Bypassable: dep.SSN > in.renSSNCommitted,
			Distance:   dist,
			Shift:      dep.Shift,
			StoreSize:  dep.StoreSize,
		}
	}
	s.byp.Train(st.PC, in.histAtDec, outcome, in.bypassPred.FromPathTable)
}

// trainStoreSets applies the baseline's violation-driven scheduling training.
func (s *Simulator) trainStoreSets(in *inflight) {
	st := in.dyn.Static
	dep := in.dyn.Dep
	if in.valueWrong && dep.Exists {
		s.ss.TrainViolation(st.PC, dep.StorePC)
		return
	}
	// A load that was held for a predicted store it did not actually forward
	// from weakens the prediction.
	if in.ssPred.DependsOnStore && (!dep.Exists || dep.SSN != in.ssPred.StoreSSN) {
		s.ss.TrainNoDependence(st.PC)
	}
}
