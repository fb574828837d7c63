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
	name string
	recs records
}

// blockShift sets the record store's block size: blockLen records of
// 96 bytes each, 384 KiB per block.
const (
	blockShift = 12
	blockLen   = 1 << blockShift
	blockMask  = blockLen - 1
)

// records is a trace's append-only record store: fixed-size blocks of
// blockLen DynInsts. It is the only code that knows the layout;
// TraceBuilder writes through add, TraceCursor reads through at.
//
// A block is never reallocated once it is full, so growing the store copies
// nothing but the first block and the small block index, and a pointer
// returned by at stays valid and equal for the trace's lifetime. The first
// block grows by doubling up to blockLen, so a short trace costs a few
// hundred bytes rather than a whole block; every later block is allocated
// whole.
type records struct {
	blocks [][]DynInst
	n      uint64
}

// add appends a zero record and returns it for the caller to fill in. The
// pointer is valid until the next add.
func (r *records) add() *DynInst {
	if r.n&blockMask == 0 {
		var b []DynInst
		if r.n > 0 {
			b = make([]DynInst, 0, blockLen)
		}
		r.blocks = append(r.blocks, b)
	}
	b := &r.blocks[len(r.blocks)-1]
	if len(*b) == cap(*b) {
		// Only the first block runs out of room before blockLen records.
		*b = append(make([]DynInst, 0, min(max(2*len(*b), 16), blockLen)), *b...)
	}
	*b = (*b)[:len(*b)+1]
	r.n++
	return &(*b)[len(*b)-1]
}

// at returns the record at 0-based index i < n.
func (r *records) at(i uint64) *DynInst {
	return &r.blocks[i>>blockShift][i&blockMask]
}

// RecordTrace executes the program to completion (or for limit dynamic
// instructions, when limit > 0) and records its dynamic stream: each
// executed instruction goes to a TraceBuilder, exactly as a decoded .nsqt
// record does.
func RecordTrace(p *program.Program, limit uint64) (*Trace, error) {
	e := New(p)
	if limit > 0 && limit < e.MaxInsts {
		e.MaxInsts = limit
	}
	b := NewTraceBuilder(p.Name)
	for !e.halted {
		in, effAddr, taken, nextPC, err := e.exec()
		if errors.Is(err, ErrLimit) {
			break
		}
		if err != nil {
			return nil, err
		}
		if err := b.Append(in, effAddr, taken, nextPC); err != nil {
			return nil, err
		}
	}
	return b.Trace()
}

// Name returns the traced program's name.
func (t *Trace) Name() string { return t.name }

// Len returns the number of dynamic instructions in the trace.
func (t *Trace) Len() uint64 { return t.recs.n }

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
// ErrEndOfStream past the end of the (possibly limit-bounded) trace. The
// pointer is the same on every call for the same seq and stays valid for the
// trace's lifetime.
func (c *TraceCursor) Get(seq uint64) (*DynInst, error) {
	if seq == 0 {
		panic("emu: TraceCursor.Get with sequence number 0")
	}
	if seq > c.end {
		return nil, ErrEndOfStream
	}
	return c.t.recs.at(seq - 1), nil
}
