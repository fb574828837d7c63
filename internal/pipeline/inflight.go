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
	// dyn is the instruction's trace record and st its static instruction,
	// looked up once at fetch.
	dyn  *emu.Record
	st   *isa.Inst
	seq  uint64
	port portClass

	// Front-end timing.
	renameReady uint64 // cycle at which the instruction may rename

	// Out-of-order core state.
	issued    bool
	completed bool

	// Resources held (released at retire or squash).
	holdsPhysReg bool
	holdsIQ      bool
	holdsLQ      bool
	holdsSQ      bool

	// Register dependences: dynamic sequence numbers of the producers of the
	// instruction's register sources (0 = architecturally ready).
	srcSeqs [2]uint64

	// Store state.
	ssn uint64

	// Load state.
	bypassed      bool
	delayed       bool
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
	exitCycle  uint64
	histAtDec  uint64 // path history used for the bypassing prediction
	histAfter  uint64 // path history after this instruction (for squash repair)
	mispredict mispredictKind

	// Harness bookkeeping (not architectural state). gen is the slot's
	// generation: it is bumped when the occupant leaves the window, at retire
	// or squash, which invalidates every schedRef to that occupancy.
	gen uint64

	// Event-driven scheduler state (see sched.go). wake lists the issue-queue
	// occupants to re-evaluate when this instruction completes;
	// inReadyQ/inMSGate guard against duplicate membership in the scheduler's
	// ready queue and multi-source poll list. A load is on the poll from
	// dispatch until it issues, exactly while its readiness can be revoked
	// (the associative multi-source hold), so inMSGate also marks the
	// candidates that must be re-verified at selection.
	wake     []schedRef
	inReadyQ bool
	inMSGate bool
}

// isLoad/isStore test the cached port class: classify maps OpLoad and
// OpStore (and only those) to portLoad/portStore, so the port carries the
// same information as re-deriving the opcode through st.
func (in *inflight) isLoad() bool  { return in.port == portLoad }
func (in *inflight) isStore() bool { return in.port == portStore }

// window holds the in-flight instructions, from fetch until retirement from
// the back-end, in age order. Sequence numbers are contiguous, so the
// occupant with sequence number seq lives in slot seq&mask of one
// power-of-two array for its whole stay: fetch claims slot tail, retire frees
// slot head, and a record never moves, so finding one is an index.
type window struct {
	slots []inflight
	mask  uint64
	head  uint64 // sequence number of the oldest occupant
	tail  uint64 // sequence number the next fetched instruction gets
}

func (w *window) len() int { return int(w.tail - w.head) }

// at returns the i-th occupant from the oldest (0-based); i must be < len.
func (w *window) at(i int) *inflight { return &w.slots[(w.head+uint64(i))&w.mask] }

// slot returns the slot of sequence number seq, whether or not seq occupies
// it now.
func (w *window) slot(seq uint64) *inflight { return &w.slots[seq&w.mask] }
