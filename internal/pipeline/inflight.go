package pipeline

import (
	"repro/internal/bpred"
	"repro/internal/bypass"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/storesets"
)

// portClass classifies instructions by the issue port they consume.
type portClass int

const (
	portSimple portClass = iota
	portComplex
	portBranch
	portLoad
	portStore
	portNone // instructions that never issue (NoSQ stores, bypassed loads)
)

func classify(in *isa.Inst) portClass {
	switch in.Op {
	case isa.OpALU, isa.OpNop, isa.OpHalt:
		return portSimple
	case isa.OpMul, isa.OpFPU:
		return portComplex
	case isa.OpBranch, isa.OpJump, isa.OpCall, isa.OpRet:
		return portBranch
	case isa.OpLoad:
		return portLoad
	case isa.OpStore:
		return portStore
	default:
		return portSimple
	}
}

// mispredictKind classifies bypassing mis-predictions (Section 3.3).
type mispredictKind int

const (
	mispredictNone mispredictKind = iota
	// mispredictShouldHaveBypassed: a non-bypassing load should have bypassed
	// (it read the cache before its communicating store got there).
	mispredictShouldHaveBypassed
	// mispredictShouldNotHaveBypassed: a bypassing load should have accessed
	// the cache instead.
	mispredictShouldNotHaveBypassed
	// mispredictWrongStore: a bypassing load bypassed from the wrong dynamic
	// store (or with the wrong shift).
	mispredictWrongStore
)

// inflight is one dynamic instruction in the timing window (from fetch until
// retirement from the in-order back-end).
type inflight struct {
	dyn  *emu.DynInst
	seq  uint64
	port portClass

	// Front-end timing.
	fetchCycle  uint64
	renameReady uint64 // cycle at which the instruction may rename
	renamed     bool
	renameCycle uint64

	// Out-of-order core state.
	issued    bool
	completed bool
	// completeCycle is valid once issued (or immediately for instructions
	// completed at rename).
	completeCycle uint64

	// Resources held (released at retire or squash).
	holdsPhysReg bool
	holdsIQ      bool
	holdsLQ      bool
	holdsSQ      bool

	// Register dependences: dynamic sequence numbers of the producers of the
	// instruction's register sources (0 = architecturally ready).
	srcSeqs [2]uint64

	// Store state.
	ssn           uint64
	storeExecuted bool // baseline: address and data written into the SQ

	// Load state.
	bypassed      bool
	delayed       bool
	forwarded     bool
	waitExecSeq   uint64 // issue gate: wait for this dynamic store to execute
	waitCommitSSN uint64 // issue gate: wait for this SSN to reach the D$
	ssnNVul       uint64
	bypassSSN     uint64
	predShift     uint8
	bypassPred    bypass.Prediction
	ssPred        storesets.Prediction
	// renSSNCommitted is the architecturally committed SSN at rename time,
	// used to decide whether the load's true dependence was in-flight.
	renSSNCommitted uint64
	valueWrong      bool
	reexec          bool

	// Branch state.
	bpPred         bpred.Prediction
	brMispredicted bool

	// Back-end state.
	inBackend  bool
	exitCycle  uint64
	histAtDec  uint64 // path history used for the bypassing prediction
	histAfter  uint64 // path history after this instruction (for squash repair)
	mispredict mispredictKind

	// Harness bookkeeping (not architectural state). gen is bumped every time
	// the record is recycled, invalidating completion events scheduled for a
	// previous occupant.
	gen uint64

	// Event-driven scheduler state (see sched.go). wake lists the issue-queue
	// occupants to re-evaluate when this instruction completes;
	// inReadyQ/inMSGate guard against duplicate membership in the scheduler's
	// ready queue and multi-source poll list; msFlip marks loads whose
	// readiness can be revoked (the associative multi-source hold) and so must
	// be re-verified at selection.
	wake     []schedRef
	inReadyQ bool
	inMSGate bool
	msFlip   bool
}

// isLoad/isStore test the cached port class: classify maps OpLoad and
// OpStore (and only those) to portLoad/portStore, so the port carries the
// same information as re-deriving the opcode through dyn.Static.
func (in *inflight) isLoad() bool  { return in.port == portLoad }
func (in *inflight) isStore() bool { return in.port == portStore }
