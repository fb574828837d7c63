package pipeline

import (
	"repro/internal/isa"
)

// fetch brings up to FetchWidth dynamic instructions into the window per
// cycle, along the architecturally correct path (oracle-path simulation).
// Branch mispredictions are modelled by halting fetch at the mispredicted
// branch until it resolves; instruction-cache misses stall fetch for the miss
// latency.
//
// Fetch probes the instruction cache only when it crosses into a new line.
// Nothing else touches the L1I, so the line of the previous probe is still
// resident and most recently used, and probing it again would hit and leave
// every way's LRU order as it was.
func (s *Simulator) fetch() {
	if s.streamEnded || s.now < s.fetchResumeCycle || s.fetchBlockedOn != 0 {
		return
	}
	branches := 0
	takenCrossed := 0
	for fetched := 0; fetched < s.cfg.FetchWidth; fetched++ {
		if s.window.len() == s.maxInFlight {
			return
		}
		s.active = true
		seq := s.window.tail
		d, err := s.cursor.Get(seq)
		if err != nil { // emu.ErrEndOfStream, the only error a cursor returns
			s.streamEnded = true
			return
		}
		st := s.cursor.Static(d)
		// Instruction cache: a miss stalls fetch for the miss latency (the
		// missing line is brought in, so the retry hits).
		if line := st.PC >> lineBits; line != s.fetchLine {
			s.fetchLine = line
			if lat := s.icacheLatency(st.PC); lat > 0 {
				s.fetchResumeCycle = s.now + uint64(lat)
				return
			}
		}

		// Claim the slot: it is cleared except for its generation, which the
		// previous occupant's departure already bumped, and its wake list's
		// capacity. The port class was pre-decoded once for the whole trace.
		in := s.window.slot(seq)
		gen, wake := in.gen, in.wake[:0]
		*in = inflight{}
		in.dyn, in.st, in.seq, in.gen, in.wake = d, st, seq, gen, wake
		in.port = portClass(s.meta.class[seq-1])
		in.renameReady = s.now + frontEndDepth
		in.histAtDec = s.pathHist.Value()
		// The new occupant reuses a window slot; reset its completed bit.
		s.clearCompletedBit(seq)

		taken, nextPC := d.Taken(), d.NextPC()
		shortBubble := false
		if st.IsBranch() {
			branches++
			in.bpPred = s.bp.Predict(st)
			switch {
			case st.IsCondBranch():
				if in.bpPred.Taken != taken {
					// Wrong direction: the front-end does not know the correct
					// path until the branch executes.
					in.brMispredicted = true
				} else if taken && in.bpPred.Target != nextPC {
					// Correct direction but BTB target miss on a direct
					// branch: fixed at decode with a short bubble.
					shortBubble = true
				}
			case st.IsReturn():
				if in.bpPred.Target != nextPC {
					in.brMispredicted = true
				}
			default:
				// Direct jumps and calls with a BTB miss are repaired at
				// decode (the target is in the instruction).
				if in.bpPred.Target != nextPC {
					shortBubble = true
				}
			}
			// Path history for the bypassing predictor (actual path).
			if st.IsCondBranch() {
				s.pathHist = s.pathHist.PushBranch(taken)
			} else if st.IsCall() {
				s.pathHist = s.pathHist.PushCall(st.PC)
			}
			if taken {
				takenCrossed++
			}
		}
		in.histAfter = s.pathHist.Value()

		s.window.tail++

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
