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

// LSQPolicy selects how in-flight store-load communication is performed.
type LSQPolicy int

const (
	// LSQAssociative is the conventional design: stores execute out-of-order
	// into an associative store queue that loads search for forwarding.
	LSQAssociative LSQPolicy = iota
	// LSQNone is NoSQ: there is no store queue; stores do not execute in the
	// out-of-order core and all in-flight communication uses SMB.
	LSQNone
)

// SchedPolicy selects the baseline's load scheduling policy.
type SchedPolicy int

const (
	// SchedNaive issues loads as soon as their address register is ready.
	SchedNaive SchedPolicy = iota
	// SchedStoreSets holds loads for stores predicted by StoreSets.
	SchedStoreSets
	// SchedPerfect holds loads exactly until their true communicating store
	// has executed (oracle scheduling, the paper's idealised baseline).
	SchedPerfect
)

// BypassPolicy selects the speculative-memory-bypassing mode.
type BypassPolicy int

const (
	// BypassNone disables SMB (conventional designs).
	BypassNone BypassPolicy = iota
	// BypassPredictor uses the NoSQ distance-based bypassing predictor.
	BypassPredictor
	// BypassPerfect is the idealised configuration: a perfect bypassing
	// predictor with idealised partial-word support ("Perfect SMB").
	BypassPerfect
)

// Config describes one simulated machine.
type Config struct {
	// Name labels the configuration in results.
	Name string

	// FetchWidth..CommitWidth are per-cycle stage widths.
	FetchWidth  int
	RenameWidth int
	IssueWidth  int
	CommitWidth int

	// ROBSize is the instruction window size (128 or 256 in the paper).
	ROBSize int
	// IQSize is the issue-queue capacity.
	IQSize int
	// LQSize is the load-queue capacity (ignored when the configuration
	// eliminates the load queue).
	LQSize int
	// SQSize is the store-queue capacity (associative configurations only).
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

	// Issue port counts per cycle.
	SimpleIntPorts int
	ComplexPorts   int
	BranchPorts    int
	LoadPorts      int
	StorePorts     int

	// LSQ selects conventional forwarding vs NoSQ.
	LSQ LSQPolicy
	// Sched selects the baseline load-scheduling policy (ignored under NoSQ,
	// which has no load scheduler).
	Sched SchedPolicy
	// Bypass selects the SMB mode.
	Bypass BypassPolicy
	// Delay enables NoSQ's confidence-driven delay mechanism.
	Delay bool

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
	// ITLBEntries/DTLBEntries/TLBAssoc configure the TLBs.
	ITLBEntries int
	DTLBEntries int
	TLBAssoc    int

	// MaxInsts bounds the number of committed instructions (0 = run the
	// workload to completion).
	MaxInsts uint64
}

// DefaultConfig returns the paper's baseline machine (Section 4.1) with an
// associative store queue and StoreSets load scheduling.
func DefaultConfig() Config {
	return Config{
		Name:        "baseline",
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
		StorePorts:     1,

		LSQ:    LSQAssociative,
		Sched:  SchedStoreSets,
		Bypass: BypassNone,
		Delay:  false,

		BPred:      bpred.DefaultConfig(),
		StoreSets:  storesets.DefaultConfig(),
		BypassPred: bypass.DefaultConfig(),

		TSSBFEntries: 128,
		TSSBFAssoc:   4,

		L1I: cache.Config{Name: "L1I", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2},
		L1D: cache.Config{Name: "L1D", SizeBytes: 64 * 1024, LineBytes: 64, Assoc: 2},
		L2:  cache.Config{Name: "L2", SizeBytes: 1024 * 1024, LineBytes: 64, Assoc: 8},

		ITLBEntries: 128,
		DTLBEntries: 128,
		TLBAssoc:    4,
	}
}

// IdealBaselineConfig returns the normalisation baseline of Figures 2 and 3:
// an associative store queue with perfect (oracle) load scheduling.
func IdealBaselineConfig() Config {
	c := DefaultConfig()
	c.Name = "ideal-baseline"
	c.Sched = SchedPerfect
	return c
}

// BaselineConfig returns the realistic conventional configuration:
// associative store queue with StoreSets load scheduling.
func BaselineConfig() Config {
	c := DefaultConfig()
	c.Name = "assoc-sq-storesets"
	return c
}

// NoSQConfig returns the NoSQ machine. delay selects the confidence-driven
// delay mechanism (the paper's "NoSQ (with delay)" vs "NoSQ (no delay)").
func NoSQConfig(delay bool) Config {
	c := DefaultConfig()
	if delay {
		c.Name = "nosq-delay"
	} else {
		c.Name = "nosq-nodelay"
	}
	c.LSQ = LSQNone
	c.Sched = SchedNaive
	c.Bypass = BypassPredictor
	c.Delay = delay
	c.BackendDepth = 8 // setup, 2x regread, agen/SVW, 3x dcache, commit
	c.BackendDCacheStage = 6
	return c
}

// PerfectSMBConfig returns the idealised NoSQ configuration with a perfect
// bypassing predictor and idealised partial-word support.
func PerfectSMBConfig() Config {
	c := NoSQConfig(true)
	c.Name = "perfect-smb"
	c.Bypass = BypassPerfect
	c.Delay = false
	return c
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
		{"BranchPorts", c.BranchPorts}, {"LoadPorts", c.LoadPorts}, {"StorePorts", c.StorePorts},
		{"TSSBFEntries", c.TSSBFEntries}, {"TSSBFAssoc", c.TSSBFAssoc},
	} {
		if ch.v <= 0 {
			return fmt.Errorf("pipeline: %s must be positive, got %d", ch.name, ch.v)
		}
	}
	if c.LSQ == LSQAssociative && c.SQSize <= 0 {
		return fmt.Errorf("pipeline: associative store queue requires SQSize > 0")
	}
	if c.LSQ == LSQAssociative && c.LQSize <= 0 {
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
	for _, cc := range []cache.Config{c.L1I, c.L1D, c.L2} {
		if err := cc.Validate(); err != nil {
			return err
		}
	}
	if c.LSQ == LSQNone && c.Bypass == BypassNone {
		return fmt.Errorf("pipeline: NoSQ requires a bypassing mode")
	}
	return nil
}
