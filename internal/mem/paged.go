package mem

// PagedTable is a sparse, page-granular table of T records, one page of
// state per PageSize addresses, with pages allocated on first touch and a
// one-entry page cache exploiting the locality of consecutive accesses. It
// backs both Memory (bytes) and the emulator's last-writer dependence oracle
// (per-byte store records).
type PagedTable[T any] struct {
	pages    map[uint64]*T
	lastPN   uint64
	lastPage *T
}

// Page returns the page containing addr, allocating it when alloc is set;
// without alloc it returns nil for untouched pages.
func (t *PagedTable[T]) Page(addr uint64, alloc bool) *T {
	pn := addr >> PageBits
	if t.lastPage != nil && t.lastPN == pn {
		return t.lastPage
	}
	if t.pages == nil {
		if !alloc {
			return nil
		}
		t.pages = make(map[uint64]*T)
	}
	p := t.pages[pn]
	if p == nil {
		if !alloc {
			return nil
		}
		p = new(T)
		t.pages[pn] = p
	}
	t.lastPN, t.lastPage = pn, p
	return p
}
