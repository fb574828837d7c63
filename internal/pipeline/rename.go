package pipeline

import (
	"repro/internal/isa"
	"repro/internal/smb"
)

// rename performs decode/rename/dispatch for up to RenameWidth instructions
// per cycle, in order. This stage is where the two designs differ most:
//
//   - In the conventional design, loads and stores allocate load/store queue
//     entries and issue-queue entries and are dispatched to the out-of-order
//     core; loads consult StoreSets for scheduling.
//   - Under NoSQ, stores allocate no store queue or issue queue entry and are
//     marked complete immediately; loads consult the bypassing predictor and
//     either bypass (complete at rename, their consumers short-circuited to
//     the predicted store's data producer), delay, or dispatch as plain
//     cache-reading loads.
func (s *Simulator) rename() {
	for n := 0; n < s.cfg.RenameWidth; n++ {
		in := s.oldestUnrenamed()
		if in == nil || in.renameReady > s.now {
			if n == 0 {
				s.res.StallFrontend++
			}
			return
		}
		if s.robUsed >= s.cfg.ROBSize {
			if n == 0 {
				s.res.StallROB++
			}
			return
		}
		if !s.renameOne(in) {
			return
		}
	}
}

func (s *Simulator) oldestUnrenamed() *inflight {
	// Renamed instructions form a prefix of the window (rename is in-order),
	// so the oldest unrenamed instruction sits right after it.
	if s.renamedCount >= s.window.len() {
		return nil
	}
	return s.window.at(s.renamedCount)
}

// renameOne renames a single instruction, returning false (without side
// effects) if a required resource is unavailable this cycle.
func (s *Simulator) renameOne(in *inflight) bool {
	st := in.dyn.Static

	// Register source producers.
	var src1, src2 uint64
	if st.Src1.Valid() && st.Src1 != isa.RegZero {
		src1 = s.ratProducer[st.Src1]
	}
	if st.Src2.Valid() && st.Src2 != isa.RegZero {
		src2 = s.ratProducer[st.Src2]
	}

	needPhys := st.HasDst()
	needIQ := true
	needLQ := false
	needSQ := false

	// Load classification (read-only; no state mutated until checks pass).
	var (
		bypassed      bool
		delayed       bool
		bypassSSN     uint64
		defSeq        uint64
		predShift     uint8
		waitExecSeq   uint64
		waitCommitSSN uint64
	)

	switch {
	case in.isStore():
		// Stores never occupy the issue queue in either design: under NoSQ
		// they skip the out-of-order engine entirely, and in the conventional
		// design the store queue captures the base address and data as their
		// producers write back, so the store is "executed" as soon as both
		// inputs are available without consuming scheduler entries.
		needIQ = false
		if s.cfg.LSQ == LSQAssociative {
			needSQ = true
		}

	case in.isLoad():
		if s.cfg.LSQ == LSQAssociative {
			needLQ = true
			switch s.cfg.Sched {
			case SchedPerfect:
				dep := in.dyn.Dep
				if dep.Exists && dep.SSN > s.ssnCommitted {
					if dep.MultiSource {
						waitCommitSSN = dep.SSN
					} else if depIn := s.find(dep.Seq); depIn != nil && !depIn.storeExecuted {
						waitExecSeq = dep.Seq
					}
				}
			case SchedStoreSets:
				pred := s.ss.PredictLoad(st.PC)
				in.ssPred = pred
				if pred.DependsOnStore {
					if depIn := s.find(pred.StoreSeq); depIn != nil && depIn.isStore() && !depIn.storeExecuted {
						waitExecSeq = pred.StoreSeq
					}
				}
			}
		} else {
			bypassed, delayed, bypassSSN, defSeq, predShift, waitCommitSSN = s.classifyNoSQLoad(in)
			if bypassed {
				needIQ = false
				needPhys = false // shares the DEF's physical register
			}
		}

	default:
		// ALU, branches, etc. dispatch normally.
	}

	// Resource checks (no state has been modified yet).
	if needPhys && s.physRegsUsed >= s.renameableRegs() {
		s.res.StallPhys++
		return false
	}
	if needIQ && s.iqUsed >= s.cfg.IQSize {
		s.res.StallIQ++
		return false
	}
	if needLQ && s.lqUsed >= s.cfg.LQSize {
		s.res.StallLQ++
		return false
	}
	if needSQ && s.sqUsed >= s.cfg.SQSize {
		s.res.StallSQ++
		return false
	}

	// Commit the rename.
	in.renamed = true
	in.renameCycle = s.now
	s.renamedCount++
	in.srcSeqs[0] = src1
	in.srcSeqs[1] = src2
	in.renSSNCommitted = s.ssnCommitted
	s.robUsed++

	if needPhys {
		s.physRegsUsed++
		in.holdsPhysReg = true
	}
	if needIQ {
		s.iqUsed++
		in.holdsIQ = true
	}
	if needLQ {
		s.lqUsed++
		in.holdsLQ = true
	}
	if needSQ {
		s.sqUsed++
		in.holdsSQ = true
	}

	switch {
	case in.isStore():
		s.ssnRenamed++
		in.ssn = s.ssnRenamed
		if s.cfg.LSQ == LSQAssociative {
			s.ss.StoreRenamed(st.PC, in.ssn, in.seq)
			s.pendingStores = append(s.pendingStores, in)
		} else {
			s.srq.Insert(smb.SRQEntry{
				SSN:         in.ssn,
				ProducerSeq: src2,
				StoreSeq:    in.seq,
				Size:        st.MemSize,
				FPConv:      st.FPConv,
			})
			// NoSQ stores do not execute in the out-of-order core: they are
			// marked complete at rename and simply wait to commit.
			in.completed = true
			in.completeCycle = s.now
			s.markCompleted(in)
		}

	case in.isLoad():
		in.waitExecSeq = waitExecSeq
		in.waitCommitSSN = waitCommitSSN
		in.delayed = delayed
		if bypassed {
			in.bypassed = true
			in.bypassSSN = bypassSSN
			in.ssnNVul = bypassSSN
			in.predShift = predShift
			in.srcSeqs[1] = defSeq // record the DEF for squash repair
			// The bypassed load never executes; its consumers obtain the
			// value from the DEF via map-table short-circuiting.
			in.completed = true
			in.completeCycle = s.now
			s.markCompleted(in)
		}
	}

	// Map-table update for the destination register. For a bypassed load the
	// consumers track the DEF (srcSeqs[1]); a zero DEF means the value is
	// architecturally ready, which is exactly what a zero map entry encodes.
	if st.HasDst() {
		if in.bypassed {
			s.ratProducer[st.Dst] = in.srcSeqs[1]
		} else {
			s.ratProducer[st.Dst] = in.seq
		}
	}

	// Hand the new issue-queue occupant to the event-driven scheduler (ready
	// instructions enter the ready queue, blocked ones register wakeups on
	// their blocking conditions).
	if in.holdsIQ {
		s.schedDispatch(in)
	}
	return true
}

// classifyNoSQLoad applies the NoSQ rename-time load policy: consult the
// bypassing predictor (or the oracle for the Perfect SMB configuration) and
// decide between bypassing, delaying, and plain dispatch.
func (s *Simulator) classifyNoSQLoad(in *inflight) (bypassed, delayed bool, bypassSSN, defSeq uint64, predShift uint8, waitCommitSSN uint64) {
	st := in.dyn.Static
	dep := in.dyn.Dep

	if s.cfg.Bypass == BypassPerfect {
		// Oracle bypassing with idealised partial-word support: every load
		// whose (youngest) communicating store is still in flight bypasses
		// and is correct by construction; everything else reads the cache,
		// waiting if necessary for its store to drain to the cache so that
		// the idealised configuration never mis-speculates.
		if dep.Exists && dep.SSN > s.ssnCommitted {
			if e, ok := s.srq.Lookup(dep.SSN); ok {
				return true, false, dep.SSN, e.ProducerSeq, dep.Shift, 0
			}
		}
		if dep.Exists && dep.SSN > s.ssnInDCache {
			return false, false, 0, 0, 0, dep.SSN
		}
		return false, false, 0, 0, 0, 0
	}

	pred := s.byp.Predict(st.PC, in.histAtDec)
	in.bypassPred = pred
	if !pred.Hit || pred.NoBypass || pred.Distance >= s.ssnRenamed {
		return false, false, 0, 0, 0, 0
	}
	ssnByp := s.ssnRenamed - pred.Distance
	if ssnByp <= s.ssnCommitted {
		// The predicted communicating store has already committed; the load
		// will find its value in the data cache.
		return false, false, 0, 0, 0, 0
	}
	srqEnt, haveSRQ := s.srq.Lookup(ssnByp)
	canBypass := false
	if haveSRQ {
		_, planOK := smb.Plan(
			smb.StoreDesc{Size: srqEnt.Size, FPConv: srqEnt.FPConv},
			smb.LoadDesc{Size: st.MemSize, Signed: st.Signed, FPConv: st.FPConv, ShiftBytes: pred.Shift},
		)
		canBypass = planOK
	}
	if s.cfg.Delay && (!pred.Confident || !canBypass) {
		// Delay: convert the would-be bypassing load into a non-bypassing
		// load that waits for the uncertain store to reach the data cache.
		return false, true, ssnByp, 0, 0, ssnByp
	}
	if canBypass {
		return true, false, ssnByp, srqEnt.ProducerSeq, pred.Shift, 0
	}
	// No delay and the bypass is statically impossible (e.g. the predicted
	// store is narrower than the load): dispatch as a plain load; it will
	// very likely mis-speculate and train the predictor.
	return false, false, 0, 0, 0, 0
}
