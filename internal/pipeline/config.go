// Package pipeline implements the cycle-level timing model of the simulated
// out-of-order processor, in both its conventional (associative store queue)
// and NoSQ organisations.
//
// The model is an oracle-path execution-driven simulator: the functional
// emulator supplies the committed dynamic instruction stream, the timing
// model fetches along that path, and mis-speculation (branch mispredictions,
// premature loads, bypassing mis-predictions) is charged by stalling or by
// squashing younger in-flight work and re-fetching it. The mechanisms the
// paper studies — store-load forwarding through an associative store queue,
// StoreSets scheduling, speculative memory bypassing, the NoSQ bypassing
// predictor, delay, SVW-filtered in-order load re-execution, and the
// lengthened NoSQ commit pipeline — are modelled structurally. A Config
// holds only what experiments, the fuzzer and the tests vary: the machine
// kind, widths, window resources, back-end depth, T-SSBF and bypassing
// predictor. The rest of the paper's core (Section 4.1) is the same in every
// machine and is stated once, in constants in this file.
//
// Every simulation replays a recorded dynamic instruction stream (an
// emu.Trace plus its pre-decoded TraceMeta) and selects instructions for
// issue with an event-driven scheduler (sched.go). New records the program
// first; NewFromTrace replays an existing recording. Batch runs several
// configurations of one benchmark over a single shared trace and TraceMeta
// in interleaved instruction quanta, so the trace and its metadata are
// streamed through the cache once per benchmark instead of once per
// configuration. Batching is a pure execution strategy: every member
// performs exactly the per-cycle step sequence of a solo Simulator, so its
// statistics are bit-identical to a solo run of the same pair. The policy
// deciding which pairs are grouped into a batch lives in
// internal/experiments.
package pipeline

import (
	"fmt"
	"math/bits"

	"repro/internal/bpred"
	"repro/internal/bypass"
	"repro/internal/cache"
)

// Kind names one of the five machines the paper evaluates (Figures 2 and
// 3). It selects every structural choice that tells them apart: whether
// stores communicate through an associative store queue or through SMB, the
// load-scheduling policy, the bypassing predictor, and the delay mechanism.
type Kind int

// The five machines, in presentation order.
const (
	// IdealBaseline is the normalisation baseline: an associative store queue
	// with perfect (oracle) load scheduling, which holds each load exactly
	// until its communicating store has executed.
	IdealBaseline Kind = iota
	// Baseline is the realistic conventional design: stores execute
	// out-of-order into an associative store queue that loads search for
	// forwarding, and StoreSets schedules loads.
	Baseline
	// NoSQNoDelay is NoSQ: there is no store queue, stores do not execute in
	// the out-of-order core, and all in-flight communication uses SMB driven
	// by the distance-based bypassing predictor.
	NoSQNoDelay
	// NoSQDelay is NoSQ with the confidence-driven delay mechanism.
	NoSQDelay
	// PerfectSMB is the idealised NoSQ machine: a perfect bypassing predictor
	// with idealised partial-word support.
	PerfectSMB
	numKinds
)

// kindNames are the configuration names that reports, checkpoints and cache
// keys carry, so they must not change.
var kindNames = [numKinds]string{"ideal-baseline", "assoc-sq-storesets", "nosq-nodelay", "nosq-delay", "perfect-smb"}

// String implements fmt.Stringer.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("config?%d", int(k))
	}
	return kindNames[k]
}

// storeQueue reports whether the machine is a conventional one, whose stores
// execute into an associative store queue; the NoSQ machines have none.
func (k Kind) storeQueue() bool { return k == IdealBaseline || k == Baseline }

// Config describes one simulated machine: the machine kind and the sizes
// that experiments, the fuzzer and the tests vary. The rest of the core is
// the paper's and is the same in every machine: the constants below, and a
// branch predictor that follows the window (branchPredictor).
type Config struct {
	// Name labels the configuration in results.
	Name string
	// Kind is the machine the configuration is a variant of.
	Kind Kind

	// FetchWidth..CommitWidth are per-cycle stage widths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// ROBSize is the instruction window size (128 or 256 in the paper).
	ROBSize int
	// IQSize is the issue-queue capacity.
	IQSize int
	// LQSize is the load-queue capacity (store-queue machines only: the NoSQ
	// machines allocate no load-queue entries).
	LQSize int
	// SQSize is the store-queue capacity (store-queue machines only).
	SQSize int
	// PhysRegs is the total number of physical registers (architectural +
	// renameable).
	PhysRegs int

	// BackendDepth is the in-order back-end (commit pipeline) depth:
	// 6 for the baseline, 8 for NoSQ.
	BackendDepth int
	// BackendDCacheStage is the offset of the data-cache stage within the
	// back-end pipeline (store writes become visible then).
	BackendDCacheStage int

	// BypassPred configures the NoSQ bypassing predictor.
	BypassPred bypass.Config

	// TSSBFEntries and TSSBFAssoc configure the SVW filter.
	TSSBFEntries int
	TSSBFAssoc   int

	// MaxInsts bounds the number of committed instructions (0 = run the
	// workload to completion).
	MaxInsts uint64
}

// The paper's core (Section 4.1), which every machine shares.
const (
	// frontEndDepth is the number of cycles from fetch to rename:
	// 1 predict + 3 fetch + 1 decode.
	frontEndDepth = 5

	// dcacheLatency, l2Latency and memLatency are load-to-use latencies in
	// cycles for L1 hits, L2 hits and memory accesses.
	dcacheLatency = 3
	l2Latency     = 10
	memLatency    = 150
	// pageWalkLatency is the cost in cycles of a page-table walk on a DTLB
	// miss.
	pageWalkLatency = 30
	// loadMissLatency is the longest load-to-use latency loadLatency
	// returns: a load missing everywhere after a page-table walk.
	loadMissLatency = dcacheLatency + l2Latency + memLatency + pageWalkLatency

	// lineBits is the log2 of every cache's line size.
	lineBits  = 6
	lineBytes = 1 << lineBits
	// pageBytes is the page size the data TLB translates.
	pageBytes = 4096

	// refWindow is the window of the machine whose branch predictor is
	// bpred.DefaultConfig (see branchPredictor).
	refWindow = 128
)

// The caches and the data TLB, whose lines are pages.
var (
	l1iConfig  = cache.Config{Name: "L1I", SizeBytes: 64 * 1024, LineBytes: lineBytes, Assoc: 2}
	l1dConfig  = cache.Config{Name: "L1D", SizeBytes: 64 * 1024, LineBytes: lineBytes, Assoc: 2}
	l2Config   = cache.Config{Name: "L2", SizeBytes: 1024 * 1024, LineBytes: lineBytes, Assoc: 8}
	dtlbConfig = cache.Config{Name: "DTLB", SizeBytes: 128 * pageBytes, LineBytes: pageBytes, Assoc: 4}
)

// issuePorts is the issue budget of each port class per cycle. Stores never
// issue: the store queue captures their operands as the producers write
// back, and NoSQ stores skip the out-of-order core, so there is no store
// port.
var issuePorts = [portStore]int{portSimple: 4, portComplex: 2, portBranch: 1, portLoad: 1}

// branchPredictor returns the branch predictor of a machine with the given
// window. Following Section 4.4 it is quadrupled when the window is doubled:
// its tables grow by (robSize/refWindow)², rounded to the nearest integer,
// at least 1, and then down to a power of two, which the tables' indexing
// needs.
func branchPredictor(robSize int) bpred.Config {
	scale := max(1, (robSize*robSize+refWindow*refWindow/2)/(refWindow*refWindow))
	return bpred.DefaultConfig().Scale(1 << (bits.Len(uint(scale)) - 1))
}

// ConfigFor returns the paper's machine of the given kind (Section 4.1) at
// the given instruction-window size (see WithWindow; 0 keeps the 128-entry
// window). The machines share one core, but NoSQ's back-end is two stages
// longer than the baseline's: its stores, which skip the out-of-order core,
// read their registers there.
func ConfigFor(kind Kind, window int) Config {
	c := Config{
		Name:        kind.String(),
		Kind:        kind,
		FetchWidth:  4,
		RenameWidth: 4,
		IssueWidth:  4,
		CommitWidth: 4,

		ROBSize:  refWindow,
		IQSize:   40,
		LQSize:   48,
		SQSize:   24,
		PhysRegs: 160,

		BackendDepth:       6, // setup, SVW, 3x dcache, commit
		BackendDCacheStage: 4,

		BypassPred: bypass.DefaultConfig(),

		TSSBFEntries: 128,
		TSSBFAssoc:   4,
	}
	if !kind.storeQueue() {
		c.BackendDepth = 8 // setup, 2x regread, agen/SVW, 3x dcache, commit
		c.BackendDCacheStage = 6
	}
	return c.WithWindow(window)
}

// WithWindow returns a copy of the configuration scaled to the given
// instruction-window size. Following Section 4.4, all window resources scale
// with the window (and the branch predictor with it, see branchPredictor),
// but the NoSQ bypassing predictor is left unchanged.
func (c Config) WithWindow(robSize int) Config {
	if robSize <= 0 || robSize == c.ROBSize {
		return c
	}
	factor := float64(robSize) / float64(c.ROBSize)
	scale := func(v int) int {
		n := int(float64(v)*factor + 0.5)
		if n < 1 {
			n = 1
		}
		return n
	}
	c.IQSize = scale(c.IQSize)
	c.LQSize = scale(c.LQSize)
	c.SQSize = scale(c.SQSize)
	c.PhysRegs = scale(c.PhysRegs)
	c.ROBSize = robSize
	c.Name = fmt.Sprintf("%s-w%d", c.Name, robSize)
	return c
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	type check struct {
		name string
		v    int
	}
	for _, ch := range []check{
		{"FetchWidth", c.FetchWidth}, {"RenameWidth", c.RenameWidth},
		{"IssueWidth", c.IssueWidth}, {"CommitWidth", c.CommitWidth},
		{"ROBSize", c.ROBSize}, {"IQSize", c.IQSize}, {"PhysRegs", c.PhysRegs},
		{"BackendDepth", c.BackendDepth},
		{"TSSBFEntries", c.TSSBFEntries}, {"TSSBFAssoc", c.TSSBFAssoc},
	} {
		if ch.v <= 0 {
			return fmt.Errorf("pipeline: %s must be positive, got %d", ch.name, ch.v)
		}
	}
	if c.Kind < 0 || c.Kind >= numKinds {
		return fmt.Errorf("pipeline: unknown machine kind %d", int(c.Kind))
	}
	if c.Kind.storeQueue() && c.SQSize <= 0 {
		return fmt.Errorf("pipeline: associative store queue requires SQSize > 0")
	}
	if c.Kind.storeQueue() && c.LQSize <= 0 {
		return fmt.Errorf("pipeline: conventional design requires LQSize > 0")
	}
	if c.PhysRegs <= 64 {
		return fmt.Errorf("pipeline: PhysRegs %d must exceed the 64 architectural registers", c.PhysRegs)
	}
	if c.BackendDCacheStage <= 0 || c.BackendDCacheStage >= c.BackendDepth {
		return fmt.Errorf("pipeline: BackendDCacheStage %d must be inside the %d-stage back-end", c.BackendDCacheStage, c.BackendDepth)
	}
	return c.BypassPred.Validate()
}
