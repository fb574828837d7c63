package smb

import (
	"math"
	"testing"
	"testing/quick"
)

func TestSRQInsertLookupRelease(t *testing.T) {
	q := NewSRQ(24)
	q.Insert(SRQEntry{SSN: 5, ProducerSeq: 100, Size: 8})
	e, ok := q.Lookup(5)
	if !ok || e.ProducerSeq != 100 || e.Size != 8 {
		t.Fatalf("Lookup(5) = %+v, %v", e, ok)
	}
	q.Release(5)
	if _, ok := q.Lookup(5); ok {
		t.Error("entry survived Release")
	}
	// Releasing again or releasing SSN 0 is harmless.
	q.Release(5)
	q.Release(0)
}

func TestSRQWrapAroundStaleDetection(t *testing.T) {
	q := NewSRQ(4)
	q.Insert(SRQEntry{SSN: 1, ProducerSeq: 10})
	q.Insert(SRQEntry{SSN: 5, ProducerSeq: 20}) // same slot as SSN 1
	if _, ok := q.Lookup(1); ok {
		t.Error("stale entry for SSN 1 should not be found after overwrite")
	}
	if e, ok := q.Lookup(5); !ok || e.ProducerSeq != 20 {
		t.Errorf("Lookup(5) = %+v, %v", e, ok)
	}
}

func TestSRQLookupZero(t *testing.T) {
	q := NewSRQ(8)
	if _, ok := q.Lookup(0); ok {
		t.Error("SSN 0 must never hit")
	}
}

func TestSRQInsertZeroPanics(t *testing.T) {
	q := NewSRQ(8)
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	q.Insert(SRQEntry{SSN: 0})
}

func TestNewSRQInvalidSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	NewSRQ(0)
}

func TestPlanFullWordBypass(t *testing.T) {
	tr, ok := Plan(StoreDesc{Size: 8}, LoadDesc{Size: 8})
	if !ok || tr.NeedsOp {
		t.Errorf("full-word bypass should be a pure short-circuit: %+v ok=%v", tr, ok)
	}
}

func TestPlanPartialWordCases(t *testing.T) {
	// Narrow load of a wide store's upper half: allowed, needs op, shift 4.
	tr, ok := Plan(StoreDesc{Size: 8}, LoadDesc{Size: 4, ShiftBytes: 4})
	if !ok || !tr.NeedsOp || tr.ShiftBytes != 4 || tr.MaskBytes != 4 {
		t.Errorf("upper-half bypass plan = %+v ok=%v", tr, ok)
	}
	// Signed narrow load: allowed, needs op with sign extension.
	tr, ok = Plan(StoreDesc{Size: 4}, LoadDesc{Size: 2, Signed: true})
	if !ok || !tr.NeedsOp || !tr.SignExtend {
		t.Errorf("signed narrow plan = %+v ok=%v", tr, ok)
	}
	// FP-converting pair: allowed, needs op with FP conversion.
	tr, ok = Plan(StoreDesc{Size: 4, FPConv: true}, LoadDesc{Size: 4, FPConv: true})
	if !ok || !tr.NeedsOp || !tr.FPConvert {
		t.Errorf("fp plan = %+v ok=%v", tr, ok)
	}
	// Wide load over narrow store (partial-store case): not bypassable.
	if _, ok := Plan(StoreDesc{Size: 2}, LoadDesc{Size: 8}); ok {
		t.Error("wide load over narrow store must not be bypassable")
	}
	// Load extending beyond the store's bytes: not bypassable.
	if _, ok := Plan(StoreDesc{Size: 8}, LoadDesc{Size: 4, ShiftBytes: 6}); ok {
		t.Error("overhanging load must not be bypassable")
	}
}

func TestApplyTransformMatchesMemoryRoundTrip(t *testing.T) {
	// Store 8 bytes, load 2 bytes at offset 4, unsigned.
	stored := uint64(0x1122334455667788)
	tr, ok := Plan(StoreDesc{Size: 8}, LoadDesc{Size: 2, ShiftBytes: 4})
	if !ok {
		t.Fatal("plan failed")
	}
	got := ApplyTransform(tr, stored, nil, nil)
	if got != 0x3344 {
		t.Errorf("transform = %#x, want 0x3344", got)
	}
	// Signed byte load of the top byte.
	tr, ok = Plan(StoreDesc{Size: 8}, LoadDesc{Size: 1, ShiftBytes: 7, Signed: true})
	if !ok {
		t.Fatal("plan failed")
	}
	got = ApplyTransform(tr, 0x80FFFFFFFFFFFFFF, nil, nil)
	if int64(got) != -128 {
		t.Errorf("signed transform = %d, want -128", int64(got))
	}
}

func TestApplyTransformFPConversion(t *testing.T) {
	// sts then lds: double in register -> single in memory -> double in
	// register. The injected op mimics both conversions.
	val := 3.25
	convStore := func(v uint64) uint64 {
		return uint64(math.Float32bits(float32(math.Float64frombits(v))))
	}
	convLoad := func(v uint64) uint64 {
		return math.Float64bits(float64(math.Float32frombits(uint32(v))))
	}
	tr, ok := Plan(StoreDesc{Size: 4, FPConv: true}, LoadDesc{Size: 4, FPConv: true})
	if !ok {
		t.Fatal("plan failed")
	}
	got := ApplyTransform(tr, math.Float64bits(val), convStore, convLoad)
	if math.Float64frombits(got) != val {
		t.Errorf("fp transform = %v, want %v", math.Float64frombits(got), val)
	}
}

// Property: whenever Plan accepts a store/load pair, ApplyTransform produces
// exactly the value the memory round trip would: store the value to memory at
// the store's address, then load from store address + shift.
func TestTransformEquivalenceProperty(t *testing.T) {
	f := func(value uint64, stSizeSel, ldSizeSel, shift uint8, signed bool) bool {
		sizes := []uint8{1, 2, 4, 8}
		stSize := sizes[stSizeSel%4]
		ldSize := sizes[ldSizeSel%4]
		shift = shift % 8
		tr, ok := Plan(StoreDesc{Size: stSize}, LoadDesc{Size: ldSize, ShiftBytes: shift, Signed: signed})
		if !ok {
			return true // nothing to check; legality tested elsewhere
		}
		// Reference: simulate memory.
		var memory [8]byte
		for i := uint8(0); i < stSize; i++ {
			memory[i] = byte(value >> (8 * i))
		}
		var raw uint64
		for i := uint8(0); i < ldSize; i++ {
			raw |= uint64(memory[shift+i]) << (8 * i)
		}
		want := raw
		if signed && ldSize < 8 {
			sign := uint64(1) << (8*uint(ldSize) - 1)
			if want&sign != 0 {
				want |= ^((uint64(1) << (8 * uint(ldSize))) - 1)
			}
		}
		got := ApplyTransform(tr, value, nil, nil)
		return got == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}
