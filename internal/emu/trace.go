package emu

import (
	"errors"

	"repro/internal/program"
)

// Trace is a fully recorded dynamic instruction stream.
//
// A sweep runs each benchmark under many machine configurations, and the
// functional emulation producing the dynamic stream is identical across all
// of them. Recording the stream once and replaying it read-only lets every
// concurrent simulation of the benchmark share one trace instead of each
// re-executing the emulator, and removes all functional-emulation work from
// the per-simulation hot path.
//
// A Trace is immutable after RecordTrace returns and safe for concurrent use
// by any number of Cursors.
type Trace struct {
	name  string
	insts []DynInst
}

// RecordTrace executes the program to completion (or for limit dynamic
// instructions, when limit > 0) and records its dynamic stream.
func RecordTrace(p *program.Program, limit uint64) (*Trace, error) {
	e := New(p)
	t := &Trace{name: p.Name}
	if limit > 0 && limit < e.MaxInsts {
		e.MaxInsts = limit
	}
	for {
		t.insts = append(t.insts, DynInst{})
		d := &t.insts[len(t.insts)-1]
		if err := e.StepInto(d); err != nil {
			t.insts = t.insts[:len(t.insts)-1]
			if errors.Is(err, ErrHalted) || errors.Is(err, ErrLimit) {
				return t, nil
			}
			return nil, err
		}
		if e.Halted() {
			return t, nil
		}
	}
}

// Name returns the traced program's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of dynamic instructions in the trace.
func (t *Trace) Len() uint64 { return uint64(len(t.insts)) }

// Cursor returns a replay cursor over the trace. limit bounds the number of
// instructions the cursor will serve (0 = the whole trace), which is how a
// simulation's MaxInsts bound applies to a shared recording. Each simulation
// needs its own cursor; cursors never mutate the trace.
func (t *Trace) Cursor(limit uint64) *TraceCursor {
	end := t.Len()
	if limit > 0 && limit < end {
		end = limit
	}
	return &TraceCursor{t: t, end: end}
}

// TraceCursor gives the timing model rewindable access to a recorded Trace.
// The timing model fetches along the architecturally correct path
// (oracle-path simulation); when it squashes in-flight work — on a branch
// mis-prediction or a store-load bypassing mis-prediction — it re-fetches the
// same dynamic instructions. The whole trace stays resident, so rewinding is
// free.
type TraceCursor struct {
	t   *Trace
	end uint64
}

// ErrEndOfStream is returned by TraceCursor.Get when no instruction with the
// requested sequence number exists: the program halted, or the cursor's limit
// was reached.
var ErrEndOfStream = errors.New("emu: end of dynamic instruction stream")

// Get returns the dynamic instruction with sequence number seq (1-based), or
// ErrEndOfStream past the end of the (possibly limit-bounded) trace.
func (c *TraceCursor) Get(seq uint64) (*DynInst, error) {
	if seq == 0 {
		panic("emu: TraceCursor.Get with sequence number 0")
	}
	if seq > c.end {
		return nil, ErrEndOfStream
	}
	return &c.t.insts[seq-1], nil
}
