package pipeline

import (
	"fmt"

	"repro/internal/emu"
	"repro/internal/stats"
)

// batchQuantum is the number of instructions each member simulation commits
// per round-robin turn. Counting instructions rather than cycles keeps all
// members inside the same region of the shared trace regardless of their
// IPC, so the dense instruction array and the shared TraceMeta stay hot in
// cache for every member rather than being streamed through once per
// configuration. Large enough to amortise the turn overhead, small enough
// that the per-turn trace region fits in cache.
const batchQuantum = 16384

// Batch runs several configurations of the same benchmark in one pass over a
// shared recorded trace (config-parallel simulation).
//
// All members replay the same read-only trace through per-member cursors and
// share one TraceMeta (pre-decoded issue-port classes), so the
// timing-independent front-end work is done once per benchmark. Everything
// configuration-dependent — predictor, SVW, SMB, cache, and flush state —
// stays per-member, and each member executes exactly the same per-cycle step
// sequence as a solo Simulator, so every member's statistics are
// bit-identical to pipeline.NewFromTrace + Run on the same (trace,
// configuration) pair. A width-1 batch is a solo run.
type Batch struct {
	sims []*Simulator
}

// NewBatch creates one simulator per configuration over the shared trace.
// The configurations may differ arbitrarily (the grouping policy that decides
// what is worth batching lives in internal/experiments); every member must
// simply replay the same benchmark trace.
func NewBatch(t *emu.Trace, cfgs []Config) (*Batch, error) {
	meta, err := NewTraceMeta(t)
	if err != nil {
		return nil, fmt.Errorf("pipeline: pre-decoding trace %s: %w", t.Name(), err)
	}
	return NewBatchWithMeta(t, meta, cfgs)
}

// NewBatchWithMeta is NewBatch with a caller-supplied TraceMeta for t,
// letting several batches over the same trace (different configuration
// groups, or repeated measurement runs) share one pre-decode. The meta must
// have been produced by NewTraceMeta on the same trace.
func NewBatchWithMeta(t *emu.Trace, meta *TraceMeta, cfgs []Config) (*Batch, error) {
	if len(cfgs) == 0 {
		return nil, fmt.Errorf("pipeline: empty batch")
	}
	if uint64(len(meta.class)) != t.Len() {
		return nil, fmt.Errorf("pipeline: trace meta covers %d instructions, trace %s has %d",
			len(meta.class), t.Name(), t.Len())
	}
	b := &Batch{sims: make([]*Simulator, 0, len(cfgs))}
	for _, cfg := range cfgs {
		s, err := newSimulator(t, meta, cfg)
		if err != nil {
			return nil, err
		}
		b.sims = append(b.sims, s)
	}
	return b, nil
}

// Run advances all members round-robin in instruction quanta until every
// member completes, and returns each member's statistics and error in
// configuration order. A member that fails (the deadlock watchdog) reports its partial
// statistics alongside its error, exactly like Simulator.Run; other members
// are unaffected.
func (b *Batch) Run() ([]stats.Run, []error) {
	n := len(b.sims)
	results := make([]stats.Run, n)
	errs := make([]error, n)
	done := make([]bool, n)
	active := n
	for active > 0 {
		for i, s := range b.sims {
			if done[i] {
				continue
			}
			finished, err := s.runQuantum(s.res.Committed + batchQuantum)
			if !finished {
				continue
			}
			results[i] = s.res
			errs[i] = err
			done[i] = true
			active--
		}
	}
	return results, errs
}
