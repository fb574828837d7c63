package pipeline

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/bpred"
	"repro/internal/bypass"
	"repro/internal/cache"
	"repro/internal/emu"
	"repro/internal/isa"
	"repro/internal/program"
	"repro/internal/smb"
	"repro/internal/stats"
	"repro/internal/storesets"
	"repro/internal/svw"
)

// Simulator is one instance of the timing model running one program under one
// machine configuration.
type Simulator struct {
	cfg Config
	// cursor replays the recorded dynamic instruction stream; meta holds its
	// pre-decoded per-instruction front-end metadata. Both are read-only and
	// may be shared with other simulations of the same trace.
	cursor *emu.TraceCursor
	meta   *TraceMeta

	// Hardware structures.
	bp    *bpred.Predictor
	ss    *storesets.Predictor
	byp   *bypass.Predictor
	tssbf *svw.TSSBF
	srq   *smb.SRQ
	l1i   *cache.Cache
	l1d   *cache.Cache
	l2    *cache.Cache
	dtlb  *cache.Cache

	now uint64

	// window holds the in-flight instructions, at most maxInFlight of them.
	// Renamed instructions form a prefix of renamedCount records (rename is
	// in-order), and the back-end pipeline holds the oldest backendLen of
	// those (commit is in-order too).
	window       window
	maxInFlight  int
	renamedCount int
	backendLen   int

	// compBuckets is a cycle-indexed ring of completion events for issued
	// instructions, each bucket in sequence order; complete drains bucket
	// now&compMask instead of scanning the window. An event pins one
	// occupancy, so events of squashed occupants are ignored.
	compBuckets [][]schedRef
	compMask    uint64

	// pendingStores lists the sequence numbers of renamed, not-yet-executed
	// stores of the conventional design (which complete when both inputs
	// have been produced, without issuing), in order.
	pendingStores []uint64

	// Fetch state. fetchLine is the instruction-cache line of the latest
	// fetch probe (fetch probes the L1I once per line, see fetch).
	fetchResumeCycle uint64
	fetchLine        uint64
	fetchBlockedOn   uint64 // seq of an unresolved mispredicted branch (0 = none)
	streamEnded      bool
	pathHist         bypass.PathHistory
	histAfterRetired uint64

	// Rename state. ratProducer maps each architectural register to the
	// sequence number of its in-flight producer (0 = architecturally ready);
	// a dense array, indexed by register number, keeps it off the heap.
	ssnRenamed   uint64
	ratProducer  [isa.NumArchRegs]uint64
	physRegsUsed int
	iqUsed       int
	lqUsed       int
	sqUsed       int

	// Back-end state.
	nextBackendDC   uint64
	ssnCommitted    uint64
	ssnInDCache     uint64
	pendingDCWrites []pendingWrite

	// Event-driven issue scheduler state (sched.go).
	readyBits  []uint64 // ready bitmap, indexed by window slot
	complBits  []uint64 // completed bitmap for window occupants, same indexing
	readyCount int      // number of set bits in readyBits
	msGate     []schedRef
	ssnWaiters []ssnWaiter

	// active records that the current cycle changed machine state, and
	// perCycle which per-cycle counters it bumped; runQuantum skips the
	// cycles after one that stays inactive (see skipIdle).
	active   bool
	perCycle uint8

	res stats.Run
	// lastCommit is the cycle of the latest commit; the watchdog fails a run
	// once stallLimit cycles pass without one (see checkProgress).
	lastCommit uint64
	stallLimit uint64
	// escapes counts SVW escapes: retired loads whose value was wrong but
	// that did not re-execute. The T-SSBF is built so that there are none,
	// and a run that counts one fails with ErrSVWEscape. Kept out of
	// stats.Run, whose JSON is in every checkpoint, cache record and golden
	// report.
	escapes uint64
}

type pendingWrite struct {
	ssn   uint64
	cycle uint64
}

// New creates a simulator for the given program and configuration. It
// records the program's dynamic instruction stream (up to cfg.MaxInsts) and
// replays it, so an emulator fault — such as running past the end of the
// program — is returned here. To share one recording across several
// simulations, record it with emu.RecordTrace and use NewFromTrace or
// NewBatchWithMeta.
func New(p *program.Program, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	t, err := emu.RecordTrace(p, cfg.MaxInsts)
	if err != nil {
		return nil, err
	}
	return NewFromTrace(t, cfg)
}

// NewFromTrace creates a simulator replaying a recorded dynamic instruction
// trace, pre-decoding its own TraceMeta. The trace is read-only and may be
// shared by any number of concurrent simulators; each gets its own cursor.
// Results are bit-identical to New on the same program and to a member of a
// Batch over the same trace.
func NewFromTrace(t *emu.Trace, cfg Config) (*Simulator, error) {
	meta, err := NewTraceMeta(t)
	if err != nil {
		return nil, err
	}
	return newSimulator(t, meta, cfg)
}

func newSimulator(t *emu.Trace, meta *TraceMeta, cfg Config) (*Simulator, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := &Simulator{
		cfg:    cfg,
		cursor: t.Cursor(cfg.MaxInsts),
		meta:   meta,
		bp:     bpred.New(branchPredictor(cfg.ROBSize)),
		ss:     storesets.New(storesets.DefaultConfig()),
		byp:    bypass.New(cfg.BypassPred),
		tssbf:  svw.NewTSSBF(cfg.TSSBFEntries, cfg.TSSBFAssoc),
		srq:    smb.NewSRQ(cfg.ROBSize),
		l1i:    cache.New(l1iConfig),
		l1d:    cache.New(l1dConfig),
		l2:     cache.New(l2Config),
		dtlb:   cache.New(dtlbConfig),
		// No line has been probed yet, and no 4-byte-aligned PC lies in
		// line ^0.
		fetchLine: ^uint64(0),
	}
	// The window holds at most ROBSize renamed instructions plus a fetch
	// buffer; fetch stops at that bound, so buffering cannot grow without
	// limit. The slot array is the next power of two.
	s.maxInFlight = cfg.ROBSize + 4*cfg.FetchWidth
	capacity := 1
	for capacity < s.maxInFlight {
		capacity <<= 1
	}
	s.window = window{slots: make([]inflight, capacity), mask: uint64(capacity - 1), head: 1, tail: 1}
	// Each slot's wake list takes its first wakeSlab consumers from its own
	// slice of one shared slab; the full slice expression caps it there, so
	// a list that outgrows its slice moves out instead of into its
	// neighbour's, and fetch keeps whichever capacity the list ends with.
	wakes := make([]schedRef, capacity*wakeSlab)
	for i := range s.window.slots {
		lo := i * wakeSlab
		s.window.slots[i].wake = wakes[lo : lo : lo+wakeSlab]
	}
	// The scheduler's bitmaps are indexed by window slot.
	s.readyBits = make([]uint64, (capacity+63)/64)
	s.complBits = make([]uint64, (capacity+63)/64)
	// The completion ring must cover the longest possible issue-to-complete
	// distance: a load missing everywhere plus a page-table walk (with slack
	// for the multi-cycle ALU latencies).
	maxLat := loadMissLatency + 8
	comp := 1
	for comp < maxLat+1 {
		comp <<= 1
	}
	// Each bucket's first IssueWidth events go to its own slice of one
	// shared slab; the full slice expression caps it there, so a bucket that
	// outgrows its slice moves out instead of into its neighbour's.
	s.compBuckets = make([][]schedRef, comp)
	slab := make([]schedRef, comp*cfg.IssueWidth)
	for i := range s.compBuckets {
		lo := i * cfg.IssueWidth
		s.compBuckets[i] = slab[lo : lo : lo+cfg.IssueWidth]
	}
	s.compMask = uint64(comp - 1)
	s.pendingStores = make([]uint64, 0, cfg.SQSize)
	s.stallLimit = stallLimit(cfg, s.maxInFlight)
	s.res.Benchmark = t.Name()
	s.res.Config = cfg.Name
	return s, nil
}

// scheduleCompletion registers an issued instruction's completion event for
// the given cycle. The bucket stays in sequence order: the event is inserted
// scanning from the tail, where it almost always belongs.
func (s *Simulator) scheduleCompletion(in *inflight, cycle uint64) {
	if cycle <= s.now {
		// Defensive: a zero-latency completion is observed at the next
		// complete pass, exactly as the window scan would have observed it.
		cycle = s.now + 1
	}
	if cycle-s.now > s.compMask {
		panic("pipeline: completion latency exceeds the completion ring")
	}
	b := append(s.compBuckets[cycle&s.compMask], schedRef{})
	i := len(b) - 1
	for ; i > 0 && b[i-1].seq > in.seq; i-- {
		b[i] = b[i-1]
	}
	b[i] = in.ref()
	s.compBuckets[cycle&s.compMask] = b
}

// MustNew is New but panics on error (for tests and benchmarks with known
// configurations).
func MustNew(p *program.Program, cfg Config) *Simulator {
	s, err := New(p, cfg)
	if err != nil {
		panic(err)
	}
	return s
}

// ErrCycleLimit is returned by Run when no instruction commits for longer
// than any correct model can take to commit one: the model has deadlocked,
// which is a bug (see stallLimit).
var ErrCycleLimit = errors.New("pipeline: cycle limit exceeded")

// ErrSVWEscape is the error of a run in which a load retired with a wrong
// value without re-executing: the paper's safety argument failed.
var ErrSVWEscape = errors.New("pipeline: SVW escape")

// stallLimit is the watchdog's bound on the cycles that may pass without a
// commit. The oldest in-flight instruction waits on nothing younger than
// itself: once the one before it retires, it is at worst fetched after a
// flush bubble and an instruction-cache miss, renamed, issued, executed as a
// load missing everywhere after a page walk, and sent down the back-end.
// The bound allows that path once per in-flight record, which leaves a wide
// margin for a correct model and still stops a lost wakeup within
// milliseconds.
func stallLimit(cfg Config, maxInFlight int) uint64 {
	path := flushRecoveryBubble + l2Latency + memLatency + frontEndDepth +
		loadMissLatency + cfg.BackendDepth
	return uint64(maxInFlight * path)
}

// checkProgress is the deadlock watchdog: it returns ErrCycleLimit once
// stallLimit cycles have passed since the latest commit.
func (s *Simulator) checkProgress() error {
	if s.now-s.lastCommit <= s.stallLimit {
		return nil
	}
	return fmt.Errorf("%w: no commit for %d cycles, at cycle %d (%d committed)",
		ErrCycleLimit, s.now-s.lastCommit, s.now, s.res.Committed)
}

// Run simulates until the program completes (or MaxInsts instructions commit)
// and returns the accumulated statistics.
func (s *Simulator) Run() (stats.Run, error) {
	_, err := s.runQuantum(math.MaxUint64)
	return s.res, err
}

// runQuantum advances the simulation until the committed-instruction count
// reaches target (math.MaxUint64 = no bound), reporting whether it finished:
// completed, or failed on the watchdog. A completed run that counted an SVW
// escape fails with ErrSVWEscape.
func (s *Simulator) runQuantum(target uint64) (finished bool, err error) {
	for !s.done() {
		if err := s.checkProgress(); err != nil {
			return true, err
		}
		if s.res.Committed >= target {
			return false, nil
		}
		s.step()
		if !s.active {
			s.skipIdle()
		}
	}
	s.res.Cycles = s.now
	if s.escapes != 0 {
		return true, fmt.Errorf("%w: %d retired loads had a wrong value and did not re-execute", ErrSVWEscape, s.escapes)
	}
	return true, nil
}

func (s *Simulator) done() bool {
	return s.streamEnded && s.window.len() == 0
}

// step advances the machine by one cycle. Stages run back to front so that
// resources freed this cycle become available to earlier stages next cycle.
func (s *Simulator) step() {
	s.active = false
	s.perCycle = 0
	s.drainDCacheWrites()
	s.retire()
	s.commitEnter()
	s.complete()
	s.issueFast()
	s.rename()
	s.fetch()
	s.now++
}

// The per-cycle counters: each is bumped at most once per cycle, and a cycle
// records which ones it bumped in perCycle.
const (
	cycStallFrontend uint8 = 1 << iota
	cycStallROB
	cycStallPhys
	cycStallIQ
	cycStallLQ
	cycStallSQ
	cycIdleIssue
)

// skipIdle moves the clock past the cycles that repeat an idle one. A cycle
// that left active clear changed no state but the per-cycle counters, and a
// stage reads the clock only to compare it with a timed event: the back-end
// head's exit cycle, the first pending data-cache write, the oldest unrenamed
// instruction's renameReady, fetchResumeCycle and the completion buckets.
// Every later cycle before the first of those events therefore does exactly
// what the idle cycle did, so the skip adds the skipped cycles to the
// counters it bumped and changes nothing else. The watchdog's bound is an
// event too, so ErrCycleLimit fires at the same cycle, with the same message,
// as it would stepping every cycle.
//
// One stage does change state in a cycle it counts as idle: a rename that
// fails its resource check after classifyNoSQLoad has looked the load up in
// the bypassing predictor, which bumps the table's LRU tick and the entry's
// lastUse. Repeating that lookup leaves the LRU order unchanged, so skipping
// the repeats changes no prediction.
func (s *Simulator) skipIdle() {
	next := s.lastCommit + s.stallLimit + 1
	if s.backendLen > 0 {
		next = min(next, s.window.at(0).exitCycle)
	}
	if len(s.pendingDCWrites) > 0 {
		next = min(next, s.pendingDCWrites[0].cycle)
	}
	if s.renamedCount < s.window.len() {
		if r := s.window.at(s.renamedCount).renameReady; r >= s.now {
			next = min(next, r)
		}
	}
	if s.fetchResumeCycle >= s.now {
		next = min(next, s.fetchResumeCycle)
	}
	// Every pending completion is due within compMask cycles; scan only as
	// far as the skip reaches, so the scan costs no more than it saves.
	for c := s.now; c < next && c-s.now <= s.compMask; c++ {
		if len(s.compBuckets[c&s.compMask]) > 0 {
			next = c
			break
		}
	}
	if next <= s.now {
		return
	}
	k := next - s.now
	m := s.perCycle
	if m&cycStallFrontend != 0 {
		s.res.StallFrontend += k
	}
	if m&cycStallROB != 0 {
		s.res.StallROB += k
	}
	if m&cycStallPhys != 0 {
		s.res.StallPhys += k
	}
	if m&cycStallIQ != 0 {
		s.res.StallIQ += k
	}
	if m&cycStallLQ != 0 {
		s.res.StallLQ += k
	}
	if m&cycStallSQ != 0 {
		s.res.StallSQ += k
	}
	if m&cycIdleIssue != 0 {
		s.res.IdleIssueCycles += k
	}
	s.now = next
}

// drainDCacheWrites makes committed stores' data-cache writes visible.
func (s *Simulator) drainDCacheWrites() {
	i := 0
	for ; i < len(s.pendingDCWrites); i++ {
		if s.pendingDCWrites[i].cycle > s.now {
			break
		}
		s.ssnInDCache = s.pendingDCWrites[i].ssn
	}
	if i > 0 {
		s.active = true
		// Compact in place so the backing array is reused instead of creeping
		// forward and forcing reallocation.
		s.pendingDCWrites = append(s.pendingDCWrites[:0], s.pendingDCWrites[i:]...)
	}
}

// find returns the in-flight record for seq, or nil if it is not in the
// window (already retired or never fetched).
func (s *Simulator) find(seq uint64) *inflight {
	if seq < s.window.head || seq >= s.window.tail {
		return nil
	}
	return s.window.slot(seq)
}

// producerDone reports whether the producer with the given sequence number
// has produced its value (completed) or already left the window.
func (s *Simulator) producerDone(seq uint64) bool {
	// The completed bitmap answers in one load. Consumers only ask about
	// producers older than themselves, so seq is either already retired
	// (older than the window) or a window occupant whose slot bit is
	// authoritative.
	if seq < s.window.head {
		return true
	}
	idx := seq & s.window.mask
	return s.complBits[idx>>6]&(1<<(idx&63)) != 0
}

// renameableRegs returns the number of physical registers available for
// renaming (total minus the architectural registers).
func (s *Simulator) renameableRegs() int { return s.cfg.PhysRegs - isa.NumArchRegs }

// wakeSlab is each in-flight record's first wake-list capacity, taken from
// newSimulator's shared slab. A solo g721.e nosq-delay run allocates 565
// times with one, 421 with two, 278 with four, and no fewer with more.
const wakeSlab = 4

// loadLatency models a data-cache read by the out-of-order core, returning
// the load-to-use latency and updating cache state and statistics.
func (s *Simulator) loadLatency(addr uint64) int {
	s.res.DCacheCoreReads++
	lat := dcacheLatency
	if !s.dtlb.Access(addr) {
		lat += pageWalkLatency
	}
	if s.l1d.Access(addr) {
		return lat
	}
	lat += l2Latency
	if s.l2.Access(addr) {
		return lat
	}
	return lat + memLatency
}

// icacheLatency models an instruction fetch; returns 0 on an L1I hit.
func (s *Simulator) icacheLatency(pc uint64) int {
	if s.l1i.Access(pc) {
		return 0
	}
	if s.l2.Access(pc) {
		return l2Latency
	}
	return memLatency
}

// squash removes every in-flight instruction younger than afterSeq, restores
// rename state, and redirects fetch to afterSeq+1.
func (s *Simulator) squash(afterSeq uint64, resumeCycle uint64) {
	// Squashed conventional stores form the tail of the pending-store list.
	for n := len(s.pendingStores); n > 0 && s.pendingStores[n-1] > afterSeq; n = len(s.pendingStores) {
		s.pendingStores = s.pendingStores[:n-1]
	}
	// The squashed instructions are the window's youngest. Each occupancy
	// ends with a new generation, so every reference to it goes stale.
	for s.window.len() > 0 && s.window.tail > afterSeq+1 {
		s.window.tail--
		v := s.window.slot(s.window.tail)
		s.releaseResources(v)
		if v.isStore() && v.ssn != 0 {
			s.srq.Release(v.ssn)
		}
		v.gen++
	}
	// Squashed instructions that had already entered the back-end (younger
	// than the flushing load but committed into the back-end pipeline in the
	// same or a later cycle) leave it with the window.
	s.renamedCount = min(s.renamedCount, s.window.len())
	s.backendLen = min(s.backendLen, s.window.len())
	// Rebuild the producer map from the renamed survivors, and rewind the
	// rename-time SSN counter to the youngest of their stores.
	clear(s.ratProducer[:])
	s.ssnRenamed = s.ssnCommitted
	for i := 0; i < s.renamedCount; i++ {
		in := s.window.at(i)
		s.mapDst(in)
		if in.isStore() {
			s.ssnRenamed = max(s.ssnRenamed, in.ssn)
		}
	}
	kept := s.pendingDCWrites[:0]
	for _, w := range s.pendingDCWrites {
		if w.ssn <= s.ssnRenamed {
			kept = append(kept, w)
		}
	}
	s.pendingDCWrites = kept
	// Restore path history and fetch state.
	if s.window.len() > 0 {
		s.pathHist = bypass.HistoryFromValue(s.window.at(s.window.len() - 1).histAfter)
	} else {
		s.pathHist = bypass.HistoryFromValue(s.histAfterRetired)
	}
	s.fetchResumeCycle = resumeCycle
	if s.fetchBlockedOn > afterSeq {
		s.fetchBlockedOn = 0
	}
	s.streamEnded = false
	s.res.Flushes++
}

// releaseResources frees everything an in-flight instruction holds.
func (s *Simulator) releaseResources(in *inflight) {
	s.clearReady(in) // no-op unless the record is in the ready bitmap
	if in.holdsPhysReg {
		s.physRegsUsed--
		in.holdsPhysReg = false
	}
	if in.holdsIQ {
		s.iqUsed--
		in.holdsIQ = false
	}
	if in.holdsLQ {
		s.lqUsed--
		in.holdsLQ = false
	}
	if in.holdsSQ {
		s.sqUsed--
		in.holdsSQ = false
	}
}
