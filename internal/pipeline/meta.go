package pipeline

import (
	"repro/internal/emu"
)

// TraceMeta is the pre-decoded, configuration-independent metadata of a
// recorded trace: everything the front-end derives from the dynamic
// instruction stream that does not depend on the simulated machine.
//
// Fetch reads each instruction's issue-port class from it. A sweep computes
// it once per trace and shares it read-only across every simulation of the
// trace (see NewBatchWithMeta), so the work of classifying instructions —
// which every configuration would otherwise redo, including on every
// post-squash re-fetch — is paid once per benchmark instead of once per
// (benchmark, configuration).
type TraceMeta struct {
	// class[i] is the issue-port class of the instruction with sequence
	// number i+1, stored as a byte: the class array is read once per fetch
	// by every member of a batch, so it is kept as dense as possible.
	// (Timing-independent per-instruction state that is cheap to recompute
	// incrementally — such as the bypass predictor's path history — is
	// deliberately NOT pre-decoded: streaming a pre-computed array through
	// the cache costs more than the few register operations it would save.)
	class []uint8
}

// NewTraceMeta pre-decodes a recorded trace. The trace is read-only; the
// returned metadata is immutable and safe to share across any number of
// concurrent simulations of the trace.
func NewTraceMeta(t *emu.Trace) (*TraceMeta, error) {
	n := t.Len()
	m := &TraceMeta{
		class: make([]uint8, n),
	}
	cur := t.Cursor(0)
	for seq := uint64(1); seq <= n; seq++ {
		d, err := cur.Get(seq)
		if err != nil {
			return nil, err
		}
		m.class[seq-1] = uint8(classify(d.Static))
	}
	return m, nil
}
