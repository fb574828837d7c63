package mem

import (
	"testing"
	"testing/quick"
)

func TestZeroValueReadable(t *testing.T) {
	var m Memory
	if got := m.Read(0x1000, 8); got != 0 {
		t.Errorf("untouched memory read = %d, want 0", got)
	}
	if n := len(m.pages.pages); n != 0 {
		t.Errorf("reads should not allocate pages, got %d", n)
	}
}

func TestReadWriteRoundTrip(t *testing.T) {
	m := New()
	addrs := []uint64{0, 1, 0xFFF, 0x1000, 0x12345678, 1 << 40}
	sizes := []int{1, 2, 4, 8}
	for _, a := range addrs {
		for _, s := range sizes {
			want := uint64(0xDEADBEEFCAFEBABE) & mask(s)
			m.Write(a, s, 0xDEADBEEFCAFEBABE)
			if got := m.Read(a, s); got != want {
				t.Errorf("addr=%#x size=%d: got %#x want %#x", a, s, got, want)
			}
		}
	}
}

func mask(size int) uint64 {
	if size == 8 {
		return ^uint64(0)
	}
	return (1 << (8 * uint(size))) - 1
}

func TestLittleEndianLayout(t *testing.T) {
	m := New()
	m.Write(0x100, 4, 0x04030201)
	for i := 0; i < 4; i++ {
		if got := m.LoadByte(0x100 + uint64(i)); got != byte(i+1) {
			t.Errorf("byte %d = %#x, want %#x", i, got, i+1)
		}
	}
}

func TestCrossPageAccess(t *testing.T) {
	m := New()
	addr := uint64(PageSize - 3)
	m.Write(addr, 8, 0x1122334455667788)
	if got := m.Read(addr, 8); got != 0x1122334455667788 {
		t.Errorf("cross-page read = %#x", got)
	}
	if n := len(m.pages.pages); n != 2 {
		t.Errorf("expected 2 pages touched, got %d", n)
	}
}

func TestPartialOverwrite(t *testing.T) {
	m := New()
	m.Write(0x200, 8, 0xFFFFFFFFFFFFFFFF)
	m.Write(0x202, 2, 0x0000)
	if got := m.Read(0x200, 8); got != 0xFFFFFFFF0000FFFF {
		t.Errorf("partial overwrite result = %#x", got)
	}
}

func TestSignExtend(t *testing.T) {
	tests := []struct {
		v    uint64
		size int
		want uint64
	}{
		{0x80, 1, 0xFFFFFFFFFFFFFF80},
		{0x7F, 1, 0x7F},
		{0x8000, 2, 0xFFFFFFFFFFFF8000},
		{0x7FFF, 2, 0x7FFF},
		{0x80000000, 4, 0xFFFFFFFF80000000},
		{0x12345678, 4, 0x12345678},
		{0xFFFFFFFFFFFFFFFF, 8, 0xFFFFFFFFFFFFFFFF},
	}
	for _, tt := range tests {
		if got := SignExtend(tt.v, tt.size); got != tt.want {
			t.Errorf("SignExtend(%#x, %d) = %#x, want %#x", tt.v, tt.size, got, tt.want)
		}
	}
}

func TestZeroExtend(t *testing.T) {
	if got := ZeroExtend(0xFFFFFFFFFFFFFF80, 1); got != 0x80 {
		t.Errorf("ZeroExtend = %#x, want 0x80", got)
	}
	if got := ZeroExtend(0xAABBCCDDEEFF0011, 8); got != 0xAABBCCDDEEFF0011 {
		t.Errorf("ZeroExtend size 8 should be identity, got %#x", got)
	}
}

func TestInvalidSizePanics(t *testing.T) {
	m := New()
	for _, size := range []int{0, 3, 5, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("size %d should panic", size)
				}
			}()
			m.Read(0, size)
		}()
	}
}

// Property: writing then reading back with the same size always returns the
// written value truncated to that size, regardless of address.
func TestWriteReadProperty(t *testing.T) {
	m := New()
	f := func(addr uint64, v uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		m.Write(addr, size, v)
		return m.Read(addr, size) == ZeroExtend(v, size)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: sign extension agrees with zero extension for non-negative values.
func TestSignZeroExtendAgreeProperty(t *testing.T) {
	f := func(v uint64, sizeSel uint8) bool {
		size := []int{1, 2, 4, 8}[sizeSel%4]
		z := ZeroExtend(v, size)
		topBit := uint64(1) << (8*uint(size) - 1)
		s := SignExtend(v, size)
		if z&topBit == 0 {
			return s == z
		}
		return s != z || size == 8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPagedTableCachedMiss: a read of an untouched page is cached as a miss,
// and a later write to that page, or to a page sharing its cache entry, must
// still reach the table and be read back.
func TestPagedTableCachedMiss(t *testing.T) {
	m := New()
	far := uint64(recentPages) << PageBits // same cache entry as page 0
	for _, addr := range []uint64{0x10, far + 0x10} {
		if got := m.Read(addr, 8); got != 0 {
			t.Fatalf("untouched %#x read %#x", addr, got)
		}
	}
	m.Write(0x10, 8, 0x1122334455667788)
	if got := m.Read(0x10, 8); got != 0x1122334455667788 {
		t.Errorf("read after a cached miss = %#x", got)
	}
	if got := m.Read(far+0x10, 8); got != 0 {
		t.Errorf("page sharing the entry read %#x, want 0", got)
	}
	m.Write(far+0x10, 1, 0xAB)
	if got, want := m.Read(0x10, 8), uint64(0x1122334455667788); got != want {
		t.Errorf("page 0 after its entry was replaced = %#x, want %#x", got, want)
	}
	if got := m.LoadByte(far + 0x10); got != 0xAB {
		t.Errorf("far page byte = %#x, want 0xab", got)
	}
	if n := len(m.pages.pages); n != 2 {
		t.Errorf("%d pages allocated, want 2", n)
	}
}
