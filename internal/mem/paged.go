package mem

// PagedTable is a sparse, page-granular table of T records, one page of
// state per PageSize addresses, with pages allocated on first touch. It
// backs both Memory (bytes) and the emulator's last-writer dependence oracle
// (per-byte store records).
//
// A small direct-mapped cache of recent lookups, indexed by the page
// number's low bits, serves the locality of consecutive accesses without the
// map. It remembers a lookup that found no page too, so reads of pages
// nothing has written (a load no store reaches) stay off the map as well.
type PagedTable[T any] struct {
	pages  map[uint64]*T
	recent [recentPages]recentPage[T]
}

// recentPages is the number of entries in a PagedTable's lookup cache.
const recentPages = 16

// recentPage is one cached lookup: page number plus one (0 = empty entry),
// and the page, nil when the table has none there.
type recentPage[T any] struct {
	key  uint64
	page *T
}

// Page returns the page containing addr, allocating it when alloc is set;
// without alloc it returns nil for untouched pages.
func (t *PagedTable[T]) Page(addr uint64, alloc bool) *T {
	pn := addr >> PageBits
	r := &t.recent[pn%recentPages]
	// A cached miss answers a read, but an allocating call replaces it.
	if r.key == pn+1 && (r.page != nil || !alloc) {
		return r.page
	}
	p := t.pages[pn]
	if p == nil && alloc {
		if t.pages == nil {
			t.pages = make(map[uint64]*T)
		}
		p = new(T)
		t.pages[pn] = p
	}
	*r = recentPage[T]{key: pn + 1, page: p}
	return p
}
