// Package mem provides the sparse byte-addressed memory used by the
// functional emulator and the data-cache model.
//
// Memory is organised as fixed-size pages allocated on first touch, so
// programs can use widely separated address regions (code, globals, stack,
// heap) without reserving space for the gaps.
package mem

import "fmt"

// PageBits is the log2 of the page size.
const PageBits = 12

// PageSize is the size of one page in bytes.
const PageSize = 1 << PageBits

const pageMask = PageSize - 1

// Memory is a sparse, paged, little-endian byte-addressed memory.
// The zero value is ready to use. Memory is not safe for concurrent use.
type Memory struct {
	pages PagedTable[[PageSize]byte]
}

// New returns an empty memory.
func New() *Memory { return &Memory{} }

func (m *Memory) page(addr uint64, alloc bool) *[PageSize]byte {
	return m.pages.Page(addr, alloc)
}

// LoadByte returns the byte at addr (0 if never written).
func (m *Memory) LoadByte(addr uint64) byte {
	p := m.page(addr, false)
	if p == nil {
		return 0
	}
	return p[addr&pageMask]
}

// StoreByte stores b at addr.
func (m *Memory) StoreByte(addr uint64, b byte) {
	m.page(addr, true)[addr&pageMask] = b
}

// Read returns size bytes starting at addr as a little-endian unsigned
// integer. size must be 1, 2, 4 or 8.
func (m *Memory) Read(addr uint64, size int) uint64 {
	checkSize(size)
	if int(addr&pageMask)+size <= PageSize {
		// Fast path: the access does not cross a page boundary, so one page
		// lookup serves every byte.
		p := m.page(addr, false)
		if p == nil {
			return 0
		}
		var v uint64
		off := addr & pageMask
		for i := 0; i < size; i++ {
			v |= uint64(p[off+uint64(i)]) << (8 * i)
		}
		return v
	}
	var v uint64
	for i := 0; i < size; i++ {
		v |= uint64(m.LoadByte(addr+uint64(i))) << (8 * i)
	}
	return v
}

// Write stores the low size bytes of v at addr, little-endian.
// size must be 1, 2, 4 or 8.
func (m *Memory) Write(addr uint64, size int, v uint64) {
	checkSize(size)
	if int(addr&pageMask)+size <= PageSize {
		p := m.page(addr, true)
		off := addr & pageMask
		for i := 0; i < size; i++ {
			p[off+uint64(i)] = byte(v >> (8 * i))
		}
		return
	}
	for i := 0; i < size; i++ {
		m.StoreByte(addr+uint64(i), byte(v>>(8*i)))
	}
}

// SignExtend sign-extends the low size bytes of v to 64 bits.
func SignExtend(v uint64, size int) uint64 {
	checkSize(size)
	if size == 8 {
		return v
	}
	shift := uint(64 - 8*size)
	return uint64(int64(v<<shift) >> shift)
}

// ZeroExtend masks v down to its low size bytes.
func ZeroExtend(v uint64, size int) uint64 {
	checkSize(size)
	if size == 8 {
		return v
	}
	return v & ((1 << (8 * uint(size))) - 1)
}

func checkSize(size int) {
	switch size {
	case 1, 2, 4, 8:
	default:
		panic(fmt.Sprintf("mem: invalid access size %d", size))
	}
}
