package workload

import "repro/internal/isa"

// This file holds the dedicated stress-pattern kernels: adversarial
// communication shapes that the slot-kind generator cannot express because
// they need address arithmetic or phase state spanning iterations. Each
// kernel is the body of the per-iteration comm_kernel (the work kernel and
// entropy branches around it come from the ordinary build path).
//
// The kernels deliberately avoid the slot emitters' rotating temp/sink
// machinery: every register is named explicitly, so each pattern's dependence
// structure is exactly what its comment claims and nothing else.

// Fixed registers for the stress kernels. They overlap the slot emitters'
// temp range (r6-r15), which is safe because a program uses either the slot
// kernel or a stress kernel, never both.
var (
	stressMask = isa.IntReg(6)
	stressA    = isa.IntReg(7)
	stressB    = isa.IntReg(8)
	stressC    = isa.IntReg(9)
	stressD    = isa.IntReg(10)
	// stressPhase persists across iterations (initialised to zero by the
	// ordinary prologue, which sets regFootIdx = 0).
	stressPhase = regFootIdx
)

// emitStressKernel dispatches to the stress pattern.
func (g *generator) emitStressKernel() {
	switch g.pattern {
	case PatternAliasStorm:
		g.emitAliasStorm()
	case PatternLongDistance:
		g.emitLongDistance()
	case PatternPhaseFlip:
		g.emitPhaseFlip()
	case PatternBurstPartial:
		g.emitBurstPartial()
	}
}

// emitAliasStorm emits sixteen stores and sixteen partially-overlapping
// loads whose addresses are 32 KB apart: every one of them lands in the same
// SVW filter set (the default TSSBF's 32 sets are indexed by
// ((addr>>3)^(addr>>10))&31, and 32 KB strides leave both terms' index bits
// unchanged), so sixteen distinct tags compete for a 4-way set every
// iteration. A phase register rotates the slot assignment each iteration,
// keeping the tag stream fresh. Half the stores are narrow and a third of
// the loads are narrow or sign-extended, so partial-word verification runs
// under heavy filter eviction — the regime where NoSQ's equality filter
// test needs its tags most.
func (g *generator) emitAliasStorm() {
	b := g.b
	const slots = 16
	b.MovImm(stressMask, slots-1)
	for i := 0; i < slots; i++ {
		b.AddImm(stressA, stressPhase, int64(i))
		b.And(stressA, stressA, stressMask)
		b.ShiftL(stressA, stressA, 15) // slot * 32KB
		b.Add(stressA, regCommBase, stressA)
		b.AddImm(regVal, regVal, 7)
		if i%2 == 0 {
			b.Store(regVal, stressA, 0, 8)
		} else {
			b.Store(regVal, stressA, 0, 4)
		}
	}
	// Load slot (phase+i+1): written by the (i+1)-th store above, so each
	// static load has a distinct store distance and an address whose filter
	// tag changes every iteration.
	for i := 0; i < slots; i++ {
		b.AddImm(stressB, stressPhase, int64(i+1))
		b.And(stressB, stressB, stressMask)
		b.ShiftL(stressB, stressB, 15)
		b.Add(stressB, regCommBase, stressB)
		switch i % 3 {
		case 0:
			b.Load(stressC, stressB, 0, 8)
		case 1:
			b.Load(stressC, stressB, 0, 4)
		default:
			b.LoadSigned(stressC, stressB, 0, 4)
		}
		b.Add(regAcc, regAcc, stressC)
	}
	b.AddImm(stressPhase, stressPhase, 1)
	b.And(stressPhase, stressPhase, stressMask)
}

// emitLongDistance emits four store-load pairs separated by 68-80 unrelated
// stores: well inside a 128-instruction window (the baseline's store queue
// forwards them effortlessly) but beyond the 63-store reach of the bypassing
// predictor's 6-bit distance field, forcing NoSQ to delay or mispredict
// every one.
func (g *generator) emitLongDistance() {
	b := g.b
	for s := 0; s < 4; s++ {
		off := int64(s) * 32
		b.AddImm(regVal, regVal, 13)
		b.Store(regVal, regCommBase, off, 8)
		for k := 0; k < 68+4*s; k++ {
			b.Store(regOne, regOut, int64(g.fill%512)*8, 8)
			g.fill++
		}
		b.Load(stressA, regCommBase, off, 8)
		b.Add(regAcc, regAcc, stressA)
	}
}

// emitPhaseFlip emits six slots whose communicating store flips between two
// candidates every 32 iterations — by address arithmetic alone. Both stores
// execute on every path, so no branch-history bit distinguishes the phases:
// the path-sensitive predictor table sees one unchanging path whose true
// distance alternates between 1 and 2, and mispredicts (bypassing from the
// wrong store) across every phase boundary.
func (g *generator) emitPhaseFlip() {
	b := g.b
	// phase = (counter >> 5) & 1; divert = phase*2048, antiDivert = (1-phase)*2048.
	b.ShiftR(stressA, regCounter, 5)
	b.And(stressA, stressA, regOne)
	b.ShiftL(stressB, stressA, 11)
	b.Xor(stressA, stressA, isa.RegZero, 1)
	b.ShiftL(stressC, stressA, 11)
	b.Add(stressB, regCommBase, stressB) // hits the load iff phase == 0
	b.Add(stressC, regCommBase, stressC) // hits the load iff phase == 1
	for s := 0; s < 6; s++ {
		off := int64(s) * 32
		b.AddImm(regVal, regVal, 9)
		b.Store(regVal, stressB, off, 8)
		b.Store(regOne, stressC, off, 8)
		b.Load(stressD, regCommBase, off, 8)
		b.Add(regAcc, regAcc, stressD)
	}
}

// emitBurstPartial alternates 16-iteration bursts of dense partial-word
// communication — including the narrow-store/wide-load multi-source case SMB
// cannot bypass — with equally long quiet phases of independent streaming.
// The predictor's learned shift/size state goes cold between bursts and must
// be relearned at each onset.
func (g *generator) emitBurstPartial() {
	b := g.b
	b.ShiftR(stressA, regCounter, 4)
	b.And(stressA, stressA, regOne)
	quiet := g.newLabel("bp_quiet")
	join := g.newLabel("bp_join")
	b.Branch(isa.BrEQZ, stressA, quiet)
	for s := 0; s < 12; s++ {
		off := int64(s) * 32
		b.AddImm(regVal, regVal, 5)
		switch s % 3 {
		case 0:
			// Wide store, shifted narrow load.
			b.Store(regVal, regCommBase, off, 8)
			b.Load(stressB, regCommBase, off+4, 2)
		case 1:
			// Two byte stores feeding a halfword load (multi-source).
			b.Store(regVal, regCommBase, off, 1)
			b.Store(regOne, regCommBase, off+1, 1)
			b.Load(stressB, regCommBase, off, 2)
		default:
			// Narrow store, sign-extended load of the same word.
			b.Store(regVal, regCommBase, off, 4)
			b.LoadSigned(stressB, regCommBase, off, 4)
		}
		b.Add(regAcc, regAcc, stressB)
	}
	b.Jump(join)
	b.Label(quiet)
	// Quiet phase: a matching instruction budget with no store-load
	// communication at all.
	for s := 0; s < 12; s++ {
		b.Load(stressB, regFootBase, int64(2048+s*64), 8)
		b.Add(regAcc, regAcc, stressB)
		b.Store(regVal, regOut, int64(s)*8, 8)
	}
	b.Label(join)
}
