package emu

import (
	"errors"
	"math"
	"testing"
	"testing/quick"

	"repro/internal/isa"
	"repro/internal/program"
)

// dyn is one record of a recorded trace together with what its accessors
// need: its sequence number, its static instruction and a cursor.
type dyn struct {
	*Record
	seq uint64
	st  *isa.Inst
	c   *TraceCursor
}

// recordsOf returns every record of tr in order.
func recordsOf(tr *Trace) []dyn {
	c := tr.Cursor(0)
	ds := make([]dyn, tr.Len())
	for i := range ds {
		r, _ := c.Get(uint64(i) + 1)
		ds[i] = dyn{Record: r, seq: uint64(i) + 1, st: c.Static(r), c: c}
	}
	return ds
}

// run executes p to its halt for the final architectural state and records
// it for the dynamic records.
func run(t *testing.T, p *program.Program) (*Emulator, []dyn) {
	t.Helper()
	e := New(p)
	if _, err := e.Run(1_000_000); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !e.Halted() {
		t.Fatal("runaway program")
	}
	tr, err := RecordTrace(p, 0)
	if err != nil {
		t.Fatalf("RecordTrace: %v", err)
	}
	return e, recordsOf(tr)
}

func TestALUArithmetic(t *testing.T) {
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	b := program.NewBuilder("alu")
	b.MovImm(r1, 7).
		MovImm(r2, 5).
		Add(r3, r1, r2).    // 12
		Sub(r3, r3, r2).    // 7
		Mul(r3, r3, r2).    // 35
		ShiftL(r3, r3, 1).  // 70
		ShiftR(r3, r3, 2).  // 17
		Xor(r3, r3, r2, 0). // 17^5 = 20
		And(r3, r3, r1).    // 20&7 = 4
		Halt()
	e, _ := run(t, b.MustBuild())
	if got := e.Reg(r3); got != 4 {
		t.Errorf("final r3 = %d, want 4", got)
	}
}

func TestCompares(t *testing.T) {
	r1, r2, r3, r4 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3), isa.IntReg(4)
	b := program.NewBuilder("cmp")
	b.MovImm(r1, -3).
		MovImm(r2, 10).
		CmpLT(r3, r1, r2, 0). // -3 < 10 -> 1
		CmpEQ(r4, r2, r2, 0). // 10 == 10 -> 1
		Halt()
	e, _ := run(t, b.MustBuild())
	if e.Reg(r3) != 1 || e.Reg(r4) != 1 {
		t.Errorf("cmp results = %d, %d, want 1, 1", e.Reg(r3), e.Reg(r4))
	}
}

func TestZeroRegisterIsImmutable(t *testing.T) {
	b := program.NewBuilder("zero")
	b.MovImm(isa.RegZero, 99).
		Add(isa.IntReg(1), isa.RegZero, isa.RegZero).
		Halt()
	e, _ := run(t, b.MustBuild())
	if e.Reg(isa.RegZero) != 0 {
		t.Error("zero register was written")
	}
	if e.Reg(isa.IntReg(1)) != 0 {
		t.Error("read of zero register returned non-zero")
	}
}

func TestLoadStoreWidthsAndSign(t *testing.T) {
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	base := int64(program.DataBase)
	b := program.NewBuilder("widths")
	b.MovImm(r1, base).
		MovImm(r2, -1). // 0xFFFF...FF
		Store(r2, r1, 0, 8).
		Load(r3, r1, 0, 1).                  // zero-extended byte: 0xFF
		LoadSigned(isa.IntReg(4), r1, 0, 2). // sign-extended halfword: -1
		Load(isa.IntReg(5), r1, 0, 4).       // zero-extended word: 0xFFFFFFFF
		Halt()
	e, _ := run(t, b.MustBuild())
	if got := e.Reg(r3); got != 0xFF {
		t.Errorf("byte load = %#x, want 0xFF", got)
	}
	if got := int64(e.Reg(isa.IntReg(4))); got != -1 {
		t.Errorf("signed halfword load = %d, want -1", got)
	}
	if got := e.Reg(isa.IntReg(5)); got != 0xFFFFFFFF {
		t.Errorf("word load = %#x, want 0xFFFFFFFF", got)
	}
}

func TestFPConvertingMemoryOps(t *testing.T) {
	r1 := isa.IntReg(1)
	f1, f2 := isa.FPReg(1), isa.FPReg(2)
	b := program.NewBuilder("fpconv")
	b.MovImm(r1, int64(program.DataBase)).
		InitData(program.DataBase+64, 8, math.Float64bits(1.5)).
		LoadFP8(f1, r1, 64). // f1 = 1.5 (double)
		StoreFP(f1, r1, 0).  // store as single
		LoadFP(f2, r1, 0).   // load back as double
		Halt()
	e, _ := run(t, b.MustBuild())
	if got := math.Float64frombits(e.Reg(f2)); got != 1.5 {
		t.Errorf("fp round trip = %v, want 1.5", got)
	}
	// The in-memory representation must be the 32-bit single.
	if got := e.Memory().Read(program.DataBase, 4); got != uint64(math.Float32bits(1.5)) {
		t.Errorf("memory holds %#x, want float32 bits of 1.5", got)
	}
}

func TestBranchLoopAndCalls(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("loop")
	// sum = 0; for i = 5; i != 0; i-- { sum = helper(sum) } where helper adds 2.
	b.MovImm(r1, 5).
		MovImm(r2, 0).
		Label("loop").
		Call("helper").
		AddImm(r1, r1, -1).
		Branch(isa.BrNEZ, r1, "loop").
		Halt().
		Label("helper").
		AddImm(r2, r2, 2).
		Ret()
	e, ds := run(t, b.MustBuild())
	if got := e.Reg(r2); got != 10 {
		t.Errorf("sum = %d, want 10", got)
	}
	// Every call must store a correct return address: every return goes
	// back to the instruction after its call.
	var calls []uint64
	for _, d := range ds {
		switch {
		case d.st.IsCall():
			calls = append(calls, d.st.PC)
		case d.st.IsReturn():
			if len(calls) == 0 {
				t.Fatalf("return at seq %d without a call", d.seq)
			}
			want := calls[len(calls)-1] + isa.InstBytes
			calls = calls[:len(calls)-1]
			if d.NextPC() != want {
				t.Errorf("return at seq %d goes to %#x, want %#x", d.seq, d.NextPC(), want)
			}
		}
	}
	if len(calls) != 0 {
		t.Errorf("%d calls never returned", len(calls))
	}
}

func TestBranchConditions(t *testing.T) {
	tests := []struct {
		fn    isa.BrFn
		v     int64
		taken bool
	}{
		{isa.BrEQZ, 0, true}, {isa.BrEQZ, 1, false},
		{isa.BrNEZ, 0, false}, {isa.BrNEZ, -5, true},
		{isa.BrLTZ, -1, true}, {isa.BrLTZ, 0, false},
		{isa.BrGEZ, 0, true}, {isa.BrGEZ, -1, false},
	}
	for _, tt := range tests {
		if got := evalBranch(tt.fn, uint64(tt.v)); got != tt.taken {
			t.Errorf("evalBranch(%d, %d) = %v, want %v", tt.fn, tt.v, got, tt.taken)
		}
	}
}

func TestStoreSSNsMonotonic(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("ssn")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 1).
		Store(r2, r1, 0, 8).
		Store(r2, r1, 8, 8).
		Load(isa.IntReg(3), r1, 0, 8).
		Store(r2, r1, 16, 8).
		Halt()
	_, ds := run(t, b.MustBuild())
	var prev uint64
	for _, d := range ds {
		if d.st.IsStore() {
			if d.StoreSSN() != prev+1 {
				t.Errorf("store SSN %d after %d", d.StoreSSN(), prev)
			}
			if d.ssnBefore != prev {
				t.Errorf("store SSNBefore = %d, want %d", d.ssnBefore, prev)
			}
			prev = d.StoreSSN()
		}
	}
	if prev != 3 {
		t.Errorf("final SSN = %d, want 3", prev)
	}
}

// findLoads returns the dynamic loads in order.
func findLoads(ds []dyn) []dyn {
	var out []dyn
	for _, d := range ds {
		if d.st.IsLoad() {
			out = append(out, d)
		}
	}
	return out
}

func TestOracleDependenceSameWordStore(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("dep")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 0x1234).
		Store(r2, r1, 0, 8).           // SSN 1
		Store(r2, r1, 64, 8).          // SSN 2
		Load(isa.IntReg(3), r1, 0, 8). // depends on SSN 1, distance 1
		Halt()
	_, ds := run(t, b.MustBuild())
	lds := findLoads(ds)
	if len(lds) != 1 {
		t.Fatalf("want 1 load, got %d", len(lds))
	}
	d := lds[0].Dep()
	if !d.Exists || d.SSN != 1 || d.MultiSource || d.PartialWord || d.Shift != 0 {
		t.Errorf("dependence = %+v, want simple full-word dep on SSN 1", d)
	}
	dist, ok := lds[0].Distance()
	if !ok || dist != 1 {
		t.Errorf("distance = %d,%v want 1,true", dist, ok)
	}
}

func TestOracleDependenceNone(t *testing.T) {
	r1 := isa.IntReg(1)
	b := program.NewBuilder("nodep")
	b.MovImm(r1, int64(program.DataBase)).
		Load(isa.IntReg(3), r1, 0, 8).
		Halt()
	_, ds := run(t, b.MustBuild())
	ld := findLoads(ds)[0]
	if ld.Dep().Exists {
		t.Errorf("expected no dependence, got %+v", ld.Dep())
	}
	if _, ok := ld.Distance(); ok {
		t.Error("Distance should report not-ok with no dependence")
	}
}

func TestOracleDependencePartialWordShift(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("partial")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 0x1122334455667788).
		Store(r2, r1, 0, 8).           // wide store, SSN 1
		Load(isa.IntReg(3), r1, 4, 2). // narrow load of upper bytes: shift 4
		Halt()
	e, ds := run(t, b.MustBuild())
	ld := findLoads(ds)[0]
	dep := ld.Dep()
	if !dep.Exists || dep.SSN != 1 {
		t.Fatalf("dependence = %+v", dep)
	}
	if !dep.PartialWord {
		t.Error("narrow load of wide store should be partial-word")
	}
	if dep.MultiSource {
		t.Error("single wide store source should not be multi-source")
	}
	if dep.Shift != 4 {
		t.Errorf("shift = %d, want 4", dep.Shift)
	}
	// The communicating store's PC and width come from its own record.
	st := ds[dep.Seq-1].st
	if !st.IsStore() || st.PC != ds[2].st.PC || st.MemSize != 8 {
		t.Errorf("dependence names %v, want the 8-byte store at seq 3", st)
	}
	if got := ld.c.DepStore(dep); got != st {
		t.Errorf("DepStore = %v, want %v", got, st)
	}
	if got := e.Reg(isa.IntReg(3)); got != 0x3344 {
		t.Errorf("loaded value = %#x, want 0x3344", got)
	}
}

func TestOracleDependenceMultiSource(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("multi")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 0xAA).
		Store(r2, r1, 0, 1).           // SSN 1: byte 0
		Store(r2, r1, 1, 1).           // SSN 2: byte 1
		Load(isa.IntReg(3), r1, 0, 2). // reads both: two 1-byte stores feed a 2-byte load
		Halt()
	_, ds := run(t, b.MustBuild())
	dep := findLoads(ds)[0].Dep()
	if !dep.Exists || !dep.MultiSource {
		t.Errorf("two-source load should be MultiSource, got %+v", dep)
	}
	if dep.SSN != 2 {
		t.Errorf("youngest source SSN = %d, want 2", dep.SSN)
	}
	if !dep.PartialWord {
		t.Error("1-byte stores feeding a load must be partial-word")
	}
}

func TestOracleDependencePartiallyUncovered(t *testing.T) {
	r1, r2 := isa.IntReg(1), isa.IntReg(2)
	b := program.NewBuilder("uncovered")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 0xBB).
		Store(r2, r1, 0, 4).           // SSN 1 writes bytes 0..3
		Load(isa.IntReg(3), r1, 0, 8). // reads bytes 0..7, 4..7 never written
		Halt()
	_, ds := run(t, b.MustBuild())
	if dep := findLoads(ds)[0].Dep(); !dep.Exists || !dep.MultiSource {
		t.Errorf("partially uncovered load should be MultiSource, got %+v", dep)
	}
}

func TestOracleDependenceOverwrite(t *testing.T) {
	r1, r2, r3 := isa.IntReg(1), isa.IntReg(2), isa.IntReg(3)
	b := program.NewBuilder("overwrite")
	b.MovImm(r1, int64(program.DataBase)).
		MovImm(r2, 1).
		MovImm(r3, 2).
		Store(r2, r1, 0, 8). // SSN 1
		Store(r3, r1, 0, 8). // SSN 2 overwrites
		Load(isa.IntReg(4), r1, 0, 8).
		Halt()
	e, ds := run(t, b.MustBuild())
	if dep := findLoads(ds)[0].Dep(); dep.SSN != 2 || dep.MultiSource {
		t.Errorf("dependence should be on SSN 2 only, got %+v", dep)
	}
	if e.Reg(isa.IntReg(4)) != 2 {
		t.Errorf("loaded %d, want 2", e.Reg(isa.IntReg(4)))
	}
}

func TestStepAfterHalt(t *testing.T) {
	b := program.NewBuilder("halt")
	b.Halt()
	e := New(b.MustBuild())
	if _, _, _, _, err := e.exec(); err != nil {
		t.Fatalf("first step: %v", err)
	}
	if _, _, _, _, err := e.exec(); !errors.Is(err, ErrHalted) {
		t.Fatalf("expected ErrHalted, got %v", err)
	}
	if n, err := e.Run(10); n != 0 || err != nil {
		t.Fatalf("Run after halt = %d, %v; want 0, nil", n, err)
	}
}

func TestInstLimit(t *testing.T) {
	b := program.NewBuilder("spin")
	b.Label("top").Jump("top")
	e := New(b.MustBuild())
	e.MaxInsts = 100
	n, err := e.Run(200)
	if !errors.Is(err, ErrLimit) || n != 100 {
		t.Fatalf("Run = %d, %v; want 100, ErrLimit", n, err)
	}
}

func TestRunHelper(t *testing.T) {
	b := program.NewBuilder("run")
	b.MovImm(isa.IntReg(1), 1).MovImm(isa.IntReg(2), 2).Halt()
	e := New(b.MustBuild())
	n, err := e.Run(100)
	if err != nil || n != 3 {
		t.Fatalf("Run = %d, %v; want 3, nil", n, err)
	}
}

// Property: the emulator's load results always equal what a simple
// reference memory model would produce for the same store/load interleaving
// on a single address.
func TestLoadValueMatchesLastStoreProperty(t *testing.T) {
	f := func(vals []uint16) bool {
		if len(vals) == 0 {
			return true
		}
		if len(vals) > 30 {
			vals = vals[:30]
		}
		r1, r2 := isa.IntReg(1), isa.IntReg(2)
		b := program.NewBuilder("prop")
		b.MovImm(r1, int64(program.DataBase))
		for _, v := range vals {
			b.MovImm(r2, int64(v))
			b.Store(r2, r1, 0, 2)
		}
		b.Load(isa.IntReg(3), r1, 0, 2)
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		e := New(p)
		if _, err := e.Run(10_000); err != nil {
			return false
		}
		return e.Reg(isa.IntReg(3)) == uint64(vals[len(vals)-1])
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: dependence distance is always SSNBefore - DepSSN and never
// negative (i.e., the dependence is always on an older store).
func TestDependenceDistanceProperty(t *testing.T) {
	f := func(offsets []uint8) bool {
		if len(offsets) > 40 {
			offsets = offsets[:40]
		}
		r1, r2 := isa.IntReg(1), isa.IntReg(2)
		b := program.NewBuilder("distprop")
		b.MovImm(r1, int64(program.DataBase))
		b.MovImm(r2, 7)
		for _, off := range offsets {
			o := int64(off%32) * 8
			b.Store(r2, r1, o, 8)
			b.Load(isa.IntReg(3), r1, int64(off%64)*8, 8)
		}
		b.Halt()
		p, err := b.Build()
		if err != nil {
			return false
		}
		tr, err := RecordTrace(p, 0)
		if err != nil {
			return false
		}
		for _, d := range recordsOf(tr) {
			if dep := d.Dep(); d.st.IsLoad() && dep.Exists {
				if dep.SSN > d.ssnBefore {
					return false
				}
				dist, has := d.Distance()
				if !has || dist != d.ssnBefore-dep.SSN {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}
