// Package svw implements the Store Vulnerability Window (SVW) re-execution
// filter used by both the baseline processor and NoSQ.
//
// SVW (Roth, ISCA 2005 / JILP 2006) identifies dynamic stores with store
// sequence numbers (SSNs) and keeps, in an address-indexed table, the SSN of
// the youngest committed store to each (hashed) address. A load that was
// speculative in some way only needs to re-execute (re-read the data cache in
// the in-order back-end) if a store younger than the youngest store the load
// is known not to be vulnerable to (SSNnvul) has committed to the load's
// address.
//
// Two table organisations are provided:
//
//   - SSBF: the original untagged, direct-mapped Store Sequence Bloom Filter.
//     Aliasing can only cause extra re-executions, so inequality filter tests
//     are safe.
//   - TSSBF: the tagged, set-associative variant (FIFO replacement within a
//     set). NoSQ requires tags because bypassed loads use an equality filter
//     test, which is unsafe under aliasing. Each entry also records the
//     committing store's size and low-order address bits so that partial-word
//     bypasses can verify their predicted shift amount without replay
//     (Section 3.5).
package svw

import "fmt"

// SSN is a store sequence number. Dynamic stores are numbered from 1 in
// rename order; 0 means "no store" / "not vulnerable to any in-flight store".
//
// The paper uses 20-bit SSNs and drains the pipeline on wrap-around; this
// implementation uses 64-bit counters, which never wrap in practice.
//
// The filters keep no counters: a test's result says whether the load
// re-executes, and the timing model counts re-executions in stats.Run.
type SSN = uint64

// SSBF is the untagged, direct-mapped Store Sequence Bloom Filter.
type SSBF struct {
	entries []SSN
	mask    uint64
}

// NewSSBF creates an untagged SSBF with the given number of entries
// (a power of two).
func NewSSBF(entries int) *SSBF {
	if entries <= 0 || entries&(entries-1) != 0 {
		panic(fmt.Sprintf("svw: SSBF entries %d must be a positive power of two", entries))
	}
	return &SSBF{entries: make([]SSN, entries), mask: uint64(entries - 1)}
}

func (f *SSBF) index(addr uint64) uint64 {
	// Hash out low offset bits; mix higher bits so strided accesses spread.
	a := addr >> 3
	a ^= a >> 13
	return a & f.mask
}

// StoreCommit records that the store with the given SSN committed to addr.
func (f *SSBF) StoreCommit(addr uint64, ssn SSN) {
	f.entries[f.index(addr)] = ssn
}

// TestLoad performs the inequality filter test for a non-bypassed load:
// the load must re-execute if a store younger than ssnNVul has committed to
// its (hashed) address.
func (f *SSBF) TestLoad(addr uint64, ssnNVul SSN) (reexec bool) {
	return f.entries[f.index(addr)] > ssnNVul
}

// TSSBFEntry is one entry of the tagged SSBF.
type TSSBFEntry struct {
	// Valid reports whether the entry holds a committed store.
	Valid bool
	// Tag is the full address tag (the paper stores a 38-bit tag; we keep the
	// whole line-granular address which is equivalent for correctness).
	Tag uint64
	// SSN is the youngest committed store to this address.
	SSN SSN
	// StoreSize is that store's width in bytes.
	StoreSize uint8
	// AddrLow is the store's low-order (offset-within-doubleword) address
	// bits, kept to verify partial-word shift amounts at commit.
	AddrLow uint8
}

// TSSBF is the tagged, set-associative SSBF with FIFO replacement per set.
//
// Safety under eviction: when a valid entry for a different address is
// evicted, its SSN is folded into maxEvicted. A non-bypassed load whose tag
// misses must then re-execute if it is vulnerable to any store up to
// maxEvicted, because the filter can no longer prove the evicted store did
// not write the load's address.
type TSSBF struct {
	// entries is the flat set-major backing array: set si occupies
	// entries[si*assoc : (si+1)*assoc]. A flat slice keeps the per-access
	// lookups free of the pointer chase a slice-of-slices would add.
	entries    []TSSBFEntry
	fifo       []int // next victim way per set
	assoc      int
	mask       uint64
	maxEvicted SSN
}

// NewTSSBF creates a tagged SSBF with the given total entries and
// associativity. The paper's configuration is 128 entries, 4-way.
func NewTSSBF(entries, assoc int) *TSSBF {
	if entries <= 0 || assoc <= 0 || entries%assoc != 0 {
		panic(fmt.Sprintf("svw: bad T-SSBF geometry entries=%d assoc=%d", entries, assoc))
	}
	numSets := entries / assoc
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("svw: T-SSBF set count %d must be a power of two", numSets))
	}
	return &TSSBF{entries: make([]TSSBFEntry, entries), fifo: make([]int, numSets), assoc: assoc, mask: uint64(numSets - 1)}
}

// tagAddr is the address at doubleword granularity: loads and stores to the
// same 8-byte word must collide so that partial-word communication is caught.
func tagAddr(addr uint64) uint64 { return addr >> 3 }

func (f *TSSBF) set(addr uint64) int {
	a := tagAddr(addr)
	return int((a ^ (a >> 7)) & f.mask)
}

// StoreCommit records a committed store: SSN, size, and low-order address
// bits for the doubleword containing addr.
func (f *TSSBF) StoreCommit(addr uint64, ssn SSN, size uint8) {
	si := f.set(addr)
	tag := tagAddr(addr)
	set := f.entries[si*f.assoc : (si+1)*f.assoc]
	for i := range set {
		if set[i].Valid && set[i].Tag == tag {
			set[i].SSN = ssn
			set[i].StoreSize = size
			set[i].AddrLow = uint8(addr & 7)
			return
		}
	}
	w := f.fifo[si]
	if set[w].Valid && set[w].SSN > f.maxEvicted {
		f.maxEvicted = set[w].SSN
	}
	set[w] = TSSBFEntry{Valid: true, Tag: tag, SSN: ssn, StoreSize: size, AddrLow: uint8(addr & 7)}
	f.fifo[si] = (w + 1) % f.assoc
}

// Lookup returns the entry for addr's doubleword, if present.
func (f *TSSBF) Lookup(addr uint64) (TSSBFEntry, bool) {
	si := f.set(addr)
	tag := tagAddr(addr)
	for _, e := range f.entries[si*f.assoc : (si+1)*f.assoc] {
		if e.Valid && e.Tag == tag {
			return e, true
		}
	}
	return TSSBFEntry{}, false
}

// TestNonBypassed performs the inequality filter test for a non-bypassed
// load: re-execute if the youngest committed store to the load's address is
// younger than ssnNVul. A tag miss means no store in the tracked window wrote
// the address, so the load is safe.
func (f *TSSBF) TestNonBypassed(addr uint64, ssnNVul SSN) (reexec bool) {
	e, ok := f.Lookup(addr)
	if !ok {
		// A tag miss is only conclusive for stores the filter still covers;
		// evicted stores must be assumed conflicting.
		return f.maxEvicted > ssnNVul
	}
	return e.SSN > ssnNVul
}

// TestBypassed performs the equality filter test for a bypassed load
// (Section 3.4, "SVW for SMB"): the load skips re-execution only if the
// filter proves the youngest committed store to its address is exactly the
// store it bypassed from (ssnByp). Any tag miss, SSN mismatch, or — for
// partial-word bypasses — shift/size mismatch forces re-execution.
//
// loadAddr/loadSize describe the load; predictedShift is the shift amount the
// bypass used. The extra size/offset check implements the paper's
// verify-without-replay of predicted shift amounts.
func (f *TSSBF) TestBypassed(loadAddr uint64, loadSize uint8, ssnByp SSN, predictedShift uint8) (reexec bool) {
	e, ok := f.Lookup(loadAddr)
	if !ok || e.SSN != ssnByp {
		return true
	}
	// Shift verification: the load's offset within the store's bytes must
	// match the predicted shift, and the load must fall entirely within the
	// store's written bytes.
	loadLow := uint8(loadAddr & 7)
	if loadLow < e.AddrLow {
		return true
	}
	actualShift := loadLow - e.AddrLow
	return actualShift != predictedShift || uint16(actualShift)+uint16(loadSize) > uint16(e.StoreSize)
}
