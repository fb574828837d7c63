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
// lengthened NoSQ commit pipeline — are modelled structurally.
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

	"repro/internal/bpred"
	"repro/internal/bypass"
	"repro/internal/cache"
	"repro/internal/storesets"
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

// Config describes one simulated machine.
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

	// FrontEndDepth is the number of cycles from fetch to rename
	// (predict + fetch + decode stages).
	FrontEndDepth int
	// BackendDepth is the in-order back-end (commit pipeline) depth:
	// 6 for the baseline, 8 for NoSQ.
	BackendDepth int
	// BackendDCacheStage is the offset of the data-cache stage within the
	// back-end pipeline (store writes become visible then).
	BackendDCacheStage int

	// DCacheLatency, L2Latency and MemLatency are load-to-use latencies in
	// cycles for L1 hits, L2 hits and memory accesses.
	DCacheLatency int
	L2Latency     int
	MemLatency    int

	// Issue port counts per cycle. Stores never issue: the store queue
	// captures their operands as the producers write back, and NoSQ stores
	// skip the out-of-order core, so there is no store port.
	SimpleIntPorts int
	ComplexPorts   int
	BranchPorts    int
	LoadPorts      int

	// BPred configures the branch predictor.
	BPred bpred.Config
	// StoreSets configures the baseline's dependence predictor.
	StoreSets storesets.Config
	// BypassPred configures the NoSQ bypassing predictor.
	BypassPred bypass.Config

	// TSSBFEntries and TSSBFAssoc configure the SVW filter.
	TSSBFEntries int
	TSSBFAssoc   int

	// L1I, L1D and L2 configure the caches.
	L1I cache.Config
	L1D cache.Config
	L2  cache.Config
	// DTLBEntries and DTLBAssoc configure the data TLB, a cache of 4 KB
	// pages (see dtlb).
	DTLBEntries int
	DTLBAssoc   int

	// MaxInsts bounds the number of committed instructions (0 = run the
	// workload to completion).
	MaxInsts uint64
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

		ROBSize:  128,
		IQSize:   40,
		LQSize:   48,
		SQSize:   24,
		PhysRegs: 160,

		FrontEndDepth:      5, // 1 predict + 3 fetch + 1 decode
		BackendDepth:       6, // setup, SVW, 3x dcache, commit
		BackendDCacheStage: 4,

		DCacheLatency: 3,
		L2Latency:     10,
		MemLatency:    150,

		SimpleIntPorts: 4,
		ComplexPorts:   2,
		BranchPorts:    1,
		LoadPorts:      1,

		BPred:      bpred.DefaultConfig(),
		StoreSets:  storesets.DefaultConfig(),
		BypassPred: bypass.DefaultConfig(),

		TSSBFEntries: 128,
		TSSBFAssoc:   4,

		L1I: cache.Config{Name: "L1I", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2},
		L1D: cache.Config{Name: "L1D", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2},
		L2:  cache.Config{Name: "L2", SizeBytes: 1024 * 1024, LineBytes: 64, Assoc: 8},

		DTLBEntries: 128,
		DTLBAssoc:   4,
	}
	if !kind.storeQueue() {
		c.BackendDepth = 8 // setup, 2x regread, agen/SVW, 3x dcache, commit
		c.BackendDCacheStage = 6
	}
	return c.WithWindow(window)
}

// pageBytes is the page size the data TLB translates.
const pageBytes = 4096

// dtlb returns the data TLB's geometry: one page-sized line per entry.
func (c Config) dtlb() cache.Config {
	return cache.Config{Name: "DTLB", SizeBytes: c.DTLBEntries * pageBytes, LineBytes: pageBytes, Assoc: c.DTLBAssoc}
}

// WithWindow returns a copy of the configuration scaled to the given
// instruction-window size. Following Section 4.4, all window resources scale
// with the window and the branch predictor is quadrupled when the window is
// doubled, but the NoSQ bypassing predictor is left unchanged.
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
	bpredFactor := int(factor*factor + 0.5)
	if bpredFactor < 1 {
		bpredFactor = 1
	}
	c.BPred = c.BPred.Scale(bpredFactor)
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
		{"FrontEndDepth", c.FrontEndDepth}, {"BackendDepth", c.BackendDepth},
		{"DCacheLatency", c.DCacheLatency}, {"L2Latency", c.L2Latency}, {"MemLatency", c.MemLatency},
		{"SimpleIntPorts", c.SimpleIntPorts}, {"ComplexPorts", c.ComplexPorts},
		{"BranchPorts", c.BranchPorts}, {"LoadPorts", c.LoadPorts},
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
	if err := c.BPred.Validate(); err != nil {
		return err
	}
	if err := c.StoreSets.Validate(); err != nil {
		return err
	}
	if err := c.BypassPred.Validate(); err != nil {
		return err
	}
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2, c.dtlb()} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	return nil
}
