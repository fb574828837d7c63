package pipeline

import (
	"repro/internal/isa"
)

// fetch brings up to FetchWidth dynamic instructions into the window per
// cycle, along the architecturally correct path (oracle-path simulation).
// Branch mispredictions are modelled by halting fetch at the mispredicted
// branch until it resolves; instruction-cache misses stall fetch for the miss
// latency.
func (s *Simulator) fetch() {
	if s.streamEnded || s.now < s.fetchResumeCycle || s.fetchBlockedOn != 0 {
		return
	}
	// The window may hold at most ROBSize renamed instructions plus a small
	// fetch buffer; bound total in-flight (fetched but unretired) records so
	// buffering cannot grow without limit.
	maxInFlight := s.cfg.ROBSize + 4*s.cfg.FetchWidth

	branches := 0
	takenCrossed := 0
	for fetched := 0; fetched < s.cfg.FetchWidth; fetched++ {
		if s.window.len() >= maxInFlight {
			return
		}
		d, err := s.cursor.Get(s.fetchSeq)
		if err != nil { // emu.ErrEndOfStream, the only error a cursor returns
			s.streamEnded = true
			return
		}
		// Instruction cache: a miss stalls fetch for the miss latency (the
		// missing line is brought in, so the retry hits).
		if lat := s.icacheLatency(d.PC); lat > 0 {
			s.fetchResumeCycle = s.now + uint64(lat)
			return
		}

		// Pool records come back zeroed except for their generation counter,
		// which must survive reuse: stale completion events scheduled for a
		// squashed previous occupant are recognised by generation mismatch.
		in := s.newInflight()
		in.dyn = d
		in.seq = d.Seq
		in.fetchCycle = s.now
		in.renameReady = s.now + uint64(s.cfg.FrontEndDepth)
		// The port class was pre-decoded once for the whole trace.
		in.port = portClass(s.meta.class[d.Seq-1])
		// The new occupant reuses a window slot; reset its completed bit.
		s.clearCompletedBit(d.Seq)
		in.histAtDec = s.pathHist.Value()

		st := d.Static
		shortBubble := false
		if st.IsBranch() {
			branches++
			in.bpPred = s.bp.Predict(st)
			switch {
			case st.IsCondBranch():
				if in.bpPred.Taken != d.Taken {
					// Wrong direction: the front-end does not know the correct
					// path until the branch executes.
					in.brMispredicted = true
				} else if d.Taken && in.bpPred.Target != d.NextPC {
					// Correct direction but BTB target miss on a direct
					// branch: fixed at decode with a short bubble.
					shortBubble = true
				}
			case st.IsReturn():
				if in.bpPred.Target != d.NextPC {
					in.brMispredicted = true
				}
			default:
				// Direct jumps and calls with a BTB miss are repaired at
				// decode (the target is in the instruction).
				if in.bpPred.Target != d.NextPC {
					shortBubble = true
				}
			}
			// Path history for the bypassing predictor (actual path).
			if st.IsCondBranch() {
				s.pathHist = s.pathHist.PushBranch(d.Taken)
			} else if st.IsCall() {
				s.pathHist = s.pathHist.PushCall(st.PC)
			}
			if d.Taken {
				takenCrossed++
			}
		}
		in.histAfter = s.pathHist.Value()

		s.window.pushBack(in)
		s.fetchSeq++

		if in.brMispredicted {
			// Fetch cannot proceed past a mispredicted branch until it
			// resolves (the correct target is unknown).
			s.fetchBlockedOn = in.seq
			return
		}
		if shortBubble {
			s.fetchResumeCycle = s.now + 2
			return
		}
		// Front-end bandwidth limits: at most two branches predicted per
		// cycle, and fetch may continue past only one taken branch.
		if branches >= 2 || takenCrossed >= 2 {
			return
		}
		if st.Op == isa.OpHalt {
			return
		}
	}
}
