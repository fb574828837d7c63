package emu

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"unsafe"

	"repro/internal/isa"
	"repro/internal/program"
)

func countedProgram(n int) *program.Program {
	b := program.NewBuilder("counted")
	r1 := isa.IntReg(1)
	for i := 0; i < n; i++ {
		b.AddImm(r1, r1, 1)
	}
	b.Halt()
	return b.MustBuild()
}

func mustRecord(t *testing.T, p *program.Program, limit uint64) *Trace {
	t.Helper()
	tr, err := RecordTrace(p, limit)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestStreamSequentialGet(t *testing.T) {
	c := mustRecord(t, countedProgram(10), 0).Cursor(0)
	for seq := uint64(1); seq <= 11; seq++ { // 10 adds + halt
		d, err := c.Get(seq)
		if err != nil {
			t.Fatalf("Get(%d): %v", seq, err)
		}
		if pc := c.Static(d).PC; pc != program.CodeBase+(seq-1)*isa.InstBytes {
			t.Errorf("Get(%d) serves the record at pc %#x", seq, pc)
		}
	}
	if _, err := c.Get(12); !errors.Is(err, ErrEndOfStream) {
		t.Errorf("expected end of stream, got %v", err)
	}
}

func TestStreamRewind(t *testing.T) {
	c := mustRecord(t, countedProgram(20), 0).Cursor(0)
	first := make([]*Record, 0, 10)
	for seq := uint64(1); seq <= 10; seq++ {
		d, err := c.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		first = append(first, d)
	}
	// Re-fetch the same range (as after a squash): identical records returned.
	for seq := uint64(3); seq <= 10; seq++ {
		d, err := c.Get(seq)
		if err != nil {
			t.Fatal(err)
		}
		if d != first[seq-1] {
			t.Errorf("rewound Get(%d) returned a different record", seq)
		}
	}
}

// TestStreamLimit checks both bounds on the served stream: the recording
// limit (a program that never halts stops after limit instructions) and a
// cursor's own, tighter limit over a shared recording.
func TestStreamLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("top").Jump("top")
	tr := mustRecord(t, b.MustBuild(), 50)
	if tr.Len() != 50 {
		t.Fatalf("recorded %d instructions, want 50", tr.Len())
	}
	for _, tc := range []struct{ limit, want uint64 }{{0, 50}, {20, 20}, {80, 50}} {
		c := tr.Cursor(tc.limit)
		n := uint64(0)
		for {
			if _, err := c.Get(n + 1); err != nil {
				if !errors.Is(err, ErrEndOfStream) {
					t.Fatalf("cursor limit %d: expected end of stream, got %v", tc.limit, err)
				}
				break
			}
			n++
		}
		if n != tc.want {
			t.Errorf("cursor limit %d served %d instructions, want %d", tc.limit, n, tc.want)
		}
	}
}

// memLoop never halts: every pass increments a counter, stores it as a word
// and as a narrower field, loads both back (one load shifted into the
// field), and branches back, so its records carry every field a trace
// holds. Recordings of it end at their limit.
func memLoop() *program.Program {
	r1, r2, r3, r4 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4)
	b := program.NewBuilder("memloop")
	b.MovImm(r1, int64(program.DataBase))
	b.Label("top").
		AddImm(r2, r2, 1).
		Store(r2, r1, 0, 8).
		Load(r3, r1, 0, 8).
		Store(r2, r1, 8, 4).
		Load(r4, r1, 10, 2).
		Branch(isa.BrNEZ, r2, "top")
	return b.MustBuild()
}

// memStraight is n-1 straight-line instructions cycling through adds,
// stores and loads (some of them partial and shifted), then OpHalt when halt
// is set, so it halts on exactly its n-th record. Without the halt the n-th
// instruction is a nop, and step n+1 runs off the end of the program and
// faults.
func memStraight(n int, halt bool) *program.Program {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder(fmt.Sprintf("memstraight-%d", n))
	for i := 0; i < n-1; i++ {
		off := -8 * int64(1+i%8)
		switch i % 4 {
		case 0:
			b.AddImm(r1, r1, 1)
		case 1:
			b.Store(r1, isa.RegSP, off, 8)
		case 2:
			b.Load(r2, isa.RegSP, off+2, 2)
		case 3:
			b.Store(r1, isa.RegSP, off, 4)
		}
	}
	if halt {
		b.Halt()
	} else {
		b.Nop()
	}
	return b.MustBuild()
}

// TestRecordTraceBlockBoundaries records streams ending just before, on and
// just past a block boundary, and on the second one, both through a limit
// and with a program that halts on its last record. The store must serve
// exactly the records the builder wrote — each copied as it was appended,
// before the first block's regrowth or a new block could disturb it — end
// where the stream ends, and hand out one stable pointer per record.
func TestRecordTraceBlockBoundaries(t *testing.T) {
	for _, n := range []int{blockLen - 1, blockLen, blockLen + 1, 2 * blockLen} {
		for _, src := range []struct {
			name  string
			p     *program.Program
			limit uint64
		}{
			{"limit", memLoop(), uint64(n)},
			{"halt", memStraight(n, true), 0},
		} {
			t.Run(fmt.Sprintf("%s/%d", src.name, n), func(t *testing.T) {
				tr := mustRecord(t, src.p, src.limit)
				if tr.Len() != uint64(n) {
					t.Fatalf("Len = %d, want %d", tr.Len(), n)
				}
				if want := (n + blockLen - 1) / blockLen; len(tr.recs.blocks) != want {
					t.Errorf("store holds %d blocks, want %d", len(tr.recs.blocks), want)
				}
				r := newRecorder(src.p, 0)
				c := tr.Cursor(0)
				ptrs := make([]*Record, n+1)
				for seq := 1; seq <= n; seq++ {
					if err := r.step(); err != nil {
						t.Fatalf("step %d: %v", seq, err)
					}
					want := *r.b.t.recs.at(uint64(seq) - 1)
					got, err := c.Get(uint64(seq))
					if err != nil {
						t.Fatalf("Get(%d): %v", seq, err)
					}
					if *got != want {
						t.Fatalf("Get(%d) = %+v, builder wrote %+v", seq, *got, want)
					}
					ptrs[seq] = got
				}
				if _, err := c.Get(uint64(n) + 1); !errors.Is(err, ErrEndOfStream) {
					t.Errorf("Get(Len+1) = %v, want ErrEndOfStream", err)
				}
				// Re-fetch across every boundary, through the first cursor
				// and a fresh one, as a squash and a second simulation do.
				for _, seq := range []int{blockLen - 1, blockLen, blockLen + 1, 2*blockLen - 1, 2 * blockLen} {
					if seq > n {
						continue
					}
					for _, cur := range []*TraceCursor{c, tr.Cursor(0)} {
						if d, _ := cur.Get(uint64(seq)); d != ptrs[seq] {
							t.Errorf("repeated Get(%d) returned a different pointer", seq)
						}
					}
				}
			})
		}
	}
}

// TestRecordTraceNoPhantomRecord: a recording that stops on its limit right
// at a block boundary opens no block it does not fill, and one whose last
// step faults fails instead of returning a short trace.
func TestRecordTraceNoPhantomRecord(t *testing.T) {
	tr := mustRecord(t, memLoop(), blockLen)
	if tr.Len() != blockLen || len(tr.recs.blocks) != 1 {
		t.Fatalf("limit on a boundary: Len %d in %d blocks, want %d in 1", tr.Len(), len(tr.recs.blocks), blockLen)
	}
	if _, err := tr.Cursor(0).Get(blockLen + 1); !errors.Is(err, ErrEndOfStream) {
		t.Errorf("Get(Len+1) = %v, want ErrEndOfStream", err)
	}

	// Step blockLen+1 runs off the end of the program.
	p := memStraight(blockLen, false)
	if _, err := RecordTrace(p, 0); err == nil || !strings.Contains(err.Error(), "outside program") {
		t.Fatalf("RecordTrace past the program's end = %v, want an emulator fault", err)
	}
}

// TestRecordSize pins the record a trace stores one of per dynamic
// instruction at 48 bytes.
func TestRecordSize(t *testing.T) {
	if got := unsafe.Sizeof(Record{}); got != 48 {
		t.Errorf("Record is %d bytes, want 48: five 8-byte fields, the static index and the packed flags", got)
	}
}

// TestRecordHasNoPointers walks the types a trace stores per dynamic
// instruction and per written byte — the record and the last-writer table's
// page — and finds no pointer, so their blocks and pages are allocated
// without pointers and the collector never scans them.
func TestRecordHasNoPointers(t *testing.T) {
	for _, typ := range []reflect.Type{reflect.TypeFor[Record](), reflect.TypeFor[writerPage]()} {
		if path := pointerPath(typ); path != "" {
			t.Errorf("%v holds a pointer at %s", typ, path)
		}
	}
}

// pointerPath returns where typ holds a pointer the collector would scan,
// or "" if it holds none.
func pointerPath(typ reflect.Type) string {
	switch typ.Kind() {
	case reflect.Bool, reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr,
		reflect.Float32, reflect.Float64, reflect.Complex64, reflect.Complex128:
		return ""
	case reflect.Array:
		if typ.Len() == 0 {
			return ""
		}
		if p := pointerPath(typ.Elem()); p != "" {
			return "[0]" + p
		}
		return ""
	case reflect.Struct:
		for i := 0; i < typ.NumField(); i++ {
			if p := pointerPath(typ.Field(i).Type); p != "" {
				return "." + typ.Field(i).Name + p
			}
		}
		return ""
	default: // pointers, slices, strings, maps, channels, funcs, interfaces
		return " (" + typ.Kind().String() + ")"
	}
}

// allocated returns the bytes f allocates on the heap. TotalAlloc counts
// every allocation, collected or not, so the figure does not depend on when
// the collector runs.
func allocated(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.TotalAlloc - m0.TotalAlloc
}

// recordingOverhead returns the bytes RecordTrace allocates beyond what
// executing the same instructions with Emulator.Run allocates: the cost of
// storing the records.
func recordingOverhead(t *testing.T, p *program.Program, limit uint64) (uint64, *Trace) {
	t.Helper()
	var tr *Trace
	var err error
	run := allocated(func() { _, err = New(p).Run(limit) })
	if err != nil {
		t.Fatal(err)
	}
	rec := allocated(func() { tr, err = RecordTrace(p, limit) })
	if err != nil {
		t.Fatal(err)
	}
	if rec < run {
		return 0, tr
	}
	return rec - run, tr
}

// TestRecordTraceAllocations guards the store's growth policy: recording
// allocates about the bytes its records occupy, not a multiple of them from
// regrowing one slice, and a tiny trace does not pay for a whole block.
func TestRecordTraceAllocations(t *testing.T) {
	const recSize = uint64(unsafe.Sizeof(Record{}))
	extra, tr := recordingOverhead(t, memLoop(), 10*blockLen+100)
	if bound := tr.Len()*recSize + 3*blockLen*recSize; extra > bound {
		t.Errorf("recording %d records allocated %d bytes for them, %.1fx their size; want at most %d",
			tr.Len(), extra, float64(extra)/float64(tr.Len()*recSize), bound)
	}
	extra, tr = recordingOverhead(t, countedProgram(9), 100)
	if tr.Len() != 10 {
		t.Fatalf("Len = %d, want 10", tr.Len())
	}
	if extra >= 4096 {
		t.Errorf("a 10-record trace allocated %d bytes of record storage, want under 4096", extra)
	}
}

// TestBuilderKeepsTableCanonical: Append refuses a static index outside the
// table and one that comes before a static no record has executed yet, and
// Trace refuses a table with a static no record executed. A refused Append
// leaves the builder as it was.
func TestBuilderKeepsTableCanonical(t *testing.T) {
	p := countedProgram(2) // add, add, halt
	b := NewTraceBuilder(p.Name, append([]isa.Inst(nil), p.Insts...))
	for _, tc := range []struct {
		static uint32
		want   string
	}{
		{3, "outside a table of 3"},
		{1, "not in first-execution order"},
	} {
		if err := b.Append(tc.static, 0, false, 0); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("Append(%d) = %v, want an error mentioning %q", tc.static, err, tc.want)
		}
	}
	for static := uint32(0); static < 2; static++ {
		if err := b.Append(static, 0, false, 0); err != nil {
			t.Fatalf("Append(%d): %v", static, err)
		}
	}
	if _, err := b.Trace(); err == nil || !strings.Contains(err.Error(), "static 2 of 3") {
		t.Errorf("Trace with the halt never executed = %v, want a never-executed error", err)
	}
}
