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
	itlb  *cache.TLB
	dtlb  *cache.TLB

	now uint64

	// window holds in-flight instructions in age order; sequence numbers are
	// contiguous, so window.at(i).seq == window.front().seq + i. Renamed
	// instructions form a prefix of renamedCount records (rename is
	// in-order).
	window       ring
	renamedCount int

	// pool holds the in-flight records not in the window, for reuse. It
	// starts with every record the window can hold, carved from one block, so
	// the cycle loop never allocates one.
	pool []*inflight

	// compBuckets is a cycle-indexed ring of completion events for issued
	// instructions; complete drains bucket now&compMask instead of scanning
	// the window. Events carry the record's generation so events belonging to
	// squashed (recycled) occupants are ignored.
	compBuckets [][]compEvent
	compMask    uint64

	// pendingStores lists renamed, not-yet-executed stores of the
	// conventional design (which complete when both inputs have been
	// produced, without issuing), in seq order.
	pendingStores []*inflight

	// Fetch state.
	fetchSeq         uint64
	fetchResumeCycle uint64
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
	backendQ        ring
	nextBackendDC   uint64
	ssnCommitted    uint64
	ssnInDCache     uint64
	pendingDCWrites []pendingWrite

	// Event-driven issue scheduler state (sched.go).
	readyBits  []uint64 // ready bitmap, indexed by seq & seqMask
	complBits  []uint64 // completed bitmap for window occupants, same indexing
	seqMask    uint64   // window-ring capacity minus one (power of two)
	readyCount int      // number of set bits in readyBits
	msGate     []schedRef
	ssnWaiters []ssnWaiter

	res stats.Run
	// lastCommit is the cycle of the latest commit; the watchdog fails a run
	// once stallLimit cycles pass without one (see checkProgress).
	lastCommit uint64
	stallLimit uint64
	// escapes counts SVW escapes: retired loads whose value was wrong but
	// that did not re-execute. The T-SSBF is built so that there are none;
	// tests assert it. Kept out of stats.Run, whose JSON is in every
	// checkpoint, cache record and golden report.
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
		cfg:      cfg,
		cursor:   t.Cursor(cfg.MaxInsts),
		meta:     meta,
		bp:       bpred.New(cfg.BPred),
		ss:       storesets.New(cfg.StoreSets),
		byp:      bypass.New(cfg.BypassPred),
		tssbf:    svw.NewTSSBF(cfg.TSSBFEntries, cfg.TSSBFAssoc),
		srq:      smb.NewSRQ(cfg.ROBSize),
		l1i:      cache.New(cfg.L1I),
		l1d:      cache.New(cfg.L1D),
		l2:       cache.New(cfg.L2),
		itlb:     cache.NewTLB("itlb", cfg.ITLBEntries, cfg.TLBAssoc),
		dtlb:     cache.NewTLB("dtlb", cfg.DTLBEntries, cfg.TLBAssoc),
		fetchSeq: 1,
	}
	// The window holds at most ROBSize renamed instructions plus a fetch
	// buffer. The bound is the pool's size: fetch stops when the pool is
	// empty, so buffering cannot grow without limit.
	maxInFlight := cfg.ROBSize + 4*cfg.FetchWidth
	s.window = newRing(maxInFlight)
	s.backendQ = newRing(maxInFlight)
	// Each record's wake list takes its first wakeSlab consumers from its own
	// slice of one shared slab; the full slice expression caps it there, so
	// a list that outgrows its slice moves out instead of into its
	// neighbour's, and recycle keeps whichever capacity the list ends with.
	block := make([]inflight, maxInFlight)
	wakes := make([]schedRef, maxInFlight*wakeSlab)
	s.pool = make([]*inflight, maxInFlight)
	for i := range block {
		lo := i * wakeSlab
		block[i].wake = wakes[lo : lo : lo+wakeSlab]
		s.pool[i] = &block[i]
	}
	// The scheduler's bitmaps are indexed by window-ring slot, seq & seqMask
	// (the ring's capacity is a power of two).
	capacity := len(s.window.buf)
	s.readyBits = make([]uint64, (capacity+63)/64)
	s.complBits = make([]uint64, (capacity+63)/64)
	s.seqMask = uint64(capacity - 1)
	// The completion ring must cover the longest possible issue-to-complete
	// distance: a load missing everywhere plus a page-table walk (with slack
	// for the multi-cycle ALU latencies).
	maxLat := loadMissLatency(cfg) + 8
	comp := 1
	for comp < maxLat+1 {
		comp <<= 1
	}
	// Each bucket's first IssueWidth events go to its own slice of one
	// shared slab; the full slice expression caps it there, so a bucket that
	// outgrows its slice moves out instead of into its neighbour's.
	s.compBuckets = make([][]compEvent, comp)
	slab := make([]compEvent, comp*cfg.IssueWidth)
	for i := range s.compBuckets {
		lo := i * cfg.IssueWidth
		s.compBuckets[i] = slab[lo : lo : lo+cfg.IssueWidth]
	}
	s.compMask = uint64(comp - 1)
	s.pendingStores = make([]*inflight, 0, cfg.SQSize)
	s.stallLimit = stallLimit(cfg, maxInFlight)
	s.res.Benchmark = t.Name()
	s.res.Config = cfg.Name
	return s, nil
}

// compEvent is one scheduled completion. seq and gen pin the event to a
// specific occupancy of the record: after a squash recycles the record, the
// generation no longer matches and the event is dead.
type compEvent struct {
	in  *inflight
	seq uint64
	gen uint64
}

// scheduleCompletion registers an issued instruction's completion event for
// the given cycle.
func (s *Simulator) scheduleCompletion(in *inflight, cycle uint64) {
	if cycle <= s.now {
		// Defensive: a zero-latency completion is observed at the next
		// complete pass, exactly as the window scan would have observed it.
		cycle = s.now + 1
	}
	if cycle-s.now > s.compMask {
		panic("pipeline: completion latency exceeds the completion ring")
	}
	idx := cycle & s.compMask
	s.compBuckets[idx] = append(s.compBuckets[idx], compEvent{in: in, seq: in.seq, gen: in.gen})
}

// newInflight takes a record from the pool. The pool is never empty here:
// every record not in the window is in the pool, and fetch stops when it is
// empty. The record is zeroed except for its generation counter, which
// monotonically tracks reuse — callers must not reset it.
func (s *Simulator) newInflight() *inflight {
	n := len(s.pool)
	in := s.pool[n-1]
	s.pool = s.pool[:n-1]
	return in
}

// recycle clears a record no longer reachable from the window or the
// back-end queue and returns it to the pool. The generation counter survives
// (incremented) so completion events scheduled for the old occupant are
// recognisably stale.
func (s *Simulator) recycle(in *inflight) {
	gen := in.gen
	wake := in.wake[:0] // keep the wakeup list's capacity across reuse
	*in = inflight{}
	in.gen = gen + 1
	in.wake = wake
	s.pool = append(s.pool, in)
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

// stallLimit is the watchdog's bound on the cycles that may pass without a
// commit. The oldest in-flight instruction waits on nothing younger than
// itself: once the one before it retires, it is at worst fetched after a
// flush bubble and an instruction-cache miss, renamed, issued, executed as a
// load missing everywhere after a page walk, and sent down the back-end.
// The bound allows that path once per in-flight record, which leaves a wide
// margin for a correct model and still stops a lost wakeup within
// milliseconds.
func stallLimit(cfg Config, maxInFlight int) uint64 {
	path := flushRecoveryBubble + cfg.L2Latency + cfg.MemLatency + cfg.FrontEndDepth +
		loadMissLatency(cfg) + cfg.BackendDepth
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
// completed, or failed on the watchdog.
func (s *Simulator) runQuantum(target uint64) (finished bool, err error) {
	for !s.done() {
		if err := s.checkProgress(); err != nil {
			return true, err
		}
		if s.res.Committed >= target {
			return false, nil
		}
		s.step()
	}
	s.res.Cycles = s.now
	return true, nil
}

func (s *Simulator) done() bool {
	return s.streamEnded && s.window.len() == 0 && s.backendQ.len() == 0
}

// step advances the machine by one cycle. Stages run back to front so that
// resources freed this cycle become available to earlier stages next cycle.
func (s *Simulator) step() {
	s.drainDCacheWrites()
	s.retire()
	s.commitEnter()
	s.complete()
	s.issueFast()
	s.rename()
	s.fetch()
	s.now++
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
		// Compact in place so the backing array is reused instead of creeping
		// forward and forcing reallocation.
		s.pendingDCWrites = append(s.pendingDCWrites[:0], s.pendingDCWrites[i:]...)
	}
}

// find returns the in-flight record for seq, or nil if it is not in the
// window (already retired or never fetched).
func (s *Simulator) find(seq uint64) *inflight {
	if s.window.len() == 0 {
		return nil
	}
	base := s.window.front().seq
	if seq < base || seq >= base+uint64(s.window.len()) {
		return nil
	}
	return s.window.at(int(seq - base))
}

// producerDone reports whether the producer with the given sequence number
// has produced its value (completed) or already left the window.
func (s *Simulator) producerDone(seq uint64) bool {
	if seq == 0 {
		return true
	}
	// The completed bitmap answers in one load. Consumers only ask about
	// producers older than themselves, so seq is either already retired
	// (older than the window) or a window occupant whose slot bit is
	// authoritative.
	if s.window.len() == 0 || seq < s.window.front().seq {
		return true
	}
	idx := seq & s.seqMask
	return s.complBits[idx>>6]&(1<<(idx&63)) != 0
}

// renameableRegs returns the number of physical registers available for
// renaming (total minus the architectural registers).
func (s *Simulator) renameableRegs() int { return s.cfg.PhysRegs - isa.NumArchRegs }

// pageWalkLatency is the cost in cycles of a page-table walk on a DTLB
// miss.
const pageWalkLatency = 30

// loadMissLatency is the longest load-to-use latency loadLatency returns: a
// load missing everywhere after a page-table walk.
func loadMissLatency(cfg Config) int {
	return cfg.DCacheLatency + cfg.L2Latency + cfg.MemLatency + pageWalkLatency
}

// wakeSlab is each in-flight record's first wake-list capacity, taken from
// newSimulator's shared slab. A solo g721.e nosq-delay run allocates 565
// times with one, 421 with two, 278 with four, and no fewer with more.
const wakeSlab = 4

// loadLatency models a data-cache read by the out-of-order core, returning
// the load-to-use latency and updating cache state and statistics.
func (s *Simulator) loadLatency(addr uint64) int {
	s.res.DCacheCoreReads++
	lat := s.cfg.DCacheLatency
	if !s.dtlb.Access(addr) {
		lat += pageWalkLatency
	}
	if s.l1d.Access(addr) {
		return lat
	}
	lat += s.cfg.L2Latency
	if s.l2.Access(addr) {
		return lat
	}
	return lat + s.cfg.MemLatency
}

// icacheLatency models an instruction fetch; returns 0 on an L1I hit.
func (s *Simulator) icacheLatency(pc uint64) int {
	if s.l1i.Access(pc) {
		return 0
	}
	if s.l2.Access(pc) {
		return s.cfg.L2Latency
	}
	return s.cfg.MemLatency
}

// squash removes every in-flight instruction younger than afterSeq, restores
// rename state, and redirects fetch to afterSeq+1.
func (s *Simulator) squash(afterSeq uint64, resumeCycle uint64) {
	// Squashed instructions that had already entered the back-end (younger
	// than the flushing load but committed into the back-end pipeline in the
	// same or a later cycle) are removed from it first; the same records form
	// the tail of the window, where they are released and recycled.
	for s.backendQ.len() > 0 && s.backendQ.back().seq > afterSeq {
		s.backendQ.popBack()
	}
	// Squashed conventional stores form the tail of the pending-store list;
	// drop them before their records are recycled below.
	for n := len(s.pendingStores); n > 0 && s.pendingStores[n-1].seq > afterSeq; n = len(s.pendingStores) {
		s.pendingStores = s.pendingStores[:n-1]
	}
	for s.window.len() > 0 && s.window.back().seq > afterSeq {
		v := s.window.popBack()
		s.releaseResources(v)
		if v.isStore() && v.ssn != 0 {
			s.srq.Release(v.ssn)
		}
		s.recycle(v)
	}
	s.renamedCount = min(s.renamedCount, s.window.len())
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
		s.pathHist = bypass.HistoryFromValue(s.window.back().histAfter)
	} else {
		s.pathHist = bypass.HistoryFromValue(s.histAfterRetired)
	}
	s.fetchSeq = afterSeq + 1
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
