package svw

import (
	"testing"
	"testing/quick"
)

func TestSSBFGeometryPanics(t *testing.T) {
	for _, n := range []int{0, -4, 100} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewSSBF(%d) should panic", n)
				}
			}()
			NewSSBF(n)
		}()
	}
}

func TestSSBFInequalityTest(t *testing.T) {
	f := NewSSBF(1024)
	addr := uint64(0x10000)
	f.StoreCommit(addr, 5)
	// Load not vulnerable to anything younger than SSN 5: safe.
	if f.TestLoad(addr, 5) {
		t.Error("load with SSNnvul equal to last store should not re-execute")
	}
	// Load only knows it is safe up to SSN 4: must re-execute.
	if !f.TestLoad(addr, 4) {
		t.Error("load with older SSNnvul should re-execute")
	}
	// Different address (assuming no alias in a 1024-entry table for these
	// two): no re-execution.
	if f.TestLoad(addr+4096, 0) {
		t.Error("unrelated address should not re-execute")
	}
}

func TestSSBFAliasingIsConservative(t *testing.T) {
	f := NewSSBF(2) // tiny: everything aliases
	f.StoreCommit(0x1000, 10)
	f.StoreCommit(0x2000, 20)
	// Aliasing can only cause extra re-executions, never missed ones: a load
	// from 0x1000 with SSNnvul 10 may see the alias SSN 20 and re-execute.
	reexecs := 0
	for _, addr := range []uint64{0x1000, 0x2000, 0x3000} {
		if f.TestLoad(addr, 10) {
			reexecs++
		}
	}
	if reexecs == 0 {
		t.Error("expected conservative aliasing to force some re-execution")
	}
}

func TestTSSBFGeometryPanics(t *testing.T) {
	cases := [][2]int{{0, 4}, {128, 0}, {127, 4}, {96, 4}}
	for _, c := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewTSSBF(%d,%d) should panic", c[0], c[1])
				}
			}()
			NewTSSBF(c[0], c[1])
		}()
	}
}

func newT() *TSSBF { return NewTSSBF(128, 4) }

func TestTSSBFNonBypassedTest(t *testing.T) {
	f := newT()
	f.StoreCommit(0x1000, 7, 8)
	if f.TestNonBypassed(0x1000, 7) {
		t.Error("safe load re-executed")
	}
	if !f.TestNonBypassed(0x1000, 6) {
		t.Error("vulnerable load not re-executed")
	}
	if f.TestNonBypassed(0x9999000, 0) {
		t.Error("tag miss should mean no re-execution for non-bypassed load")
	}
}

func TestTSSBFBypassedEqualityTest(t *testing.T) {
	f := newT()
	f.StoreCommit(0x2000, 12, 8)
	// Correct bypass: same SSN, full-word, shift 0.
	if f.TestBypassed(0x2000, 8, 12, 0) {
		t.Error("correctly bypassed load should skip re-execution")
	}
	// Wrong store SSN: must re-execute.
	if !f.TestBypassed(0x2000, 8, 11, 0) {
		t.Error("bypass from wrong store must re-execute")
	}
	// Tag miss: must re-execute.
	if !f.TestBypassed(0x7777000, 8, 12, 0) {
		t.Error("bypassed load with tag miss must re-execute")
	}
}

func TestTSSBFPartialWordShiftVerification(t *testing.T) {
	f := newT()
	// 8-byte store at 0x3000.
	f.StoreCommit(0x3000, 20, 8)
	// 2-byte load at 0x3004 bypassing with predicted shift 4: OK.
	if f.TestBypassed(0x3004, 2, 20, 4) {
		t.Error("correct partial-word bypass should skip re-execution")
	}
	// Same load with wrong predicted shift: re-execute.
	if !f.TestBypassed(0x3004, 2, 20, 0) {
		t.Error("wrong shift must re-execute")
	}
	// Load extending past the store's bytes: re-execute.
	if !f.TestBypassed(0x3004, 8, 20, 4) {
		t.Error("load wider than remaining store bytes must re-execute")
	}
	// Narrow store, wide load (partial-store case): always re-execute.
	f.StoreCommit(0x3100, 21, 2)
	if !f.TestBypassed(0x3100, 8, 21, 0) {
		t.Error("wide load over narrow store must re-execute")
	}
	// Load starting below the store's first byte: re-execute.
	f.StoreCommit(0x3204, 22, 4)
	if !f.TestBypassed(0x3200, 4, 22, 0) {
		t.Error("load below store start must re-execute")
	}
}

func TestTSSBFSameWordUpdateReplacesEntry(t *testing.T) {
	f := newT()
	f.StoreCommit(0x4000, 5, 8)
	f.StoreCommit(0x4000, 9, 4)
	e, ok := f.Lookup(0x4000)
	if !ok || e.SSN != 9 || e.StoreSize != 4 {
		t.Errorf("entry = %+v, want SSN 9 size 4", e)
	}
}

func TestTSSBFFIFOEviction(t *testing.T) {
	f := NewTSSBF(4, 4) // one set of 4 ways
	addrs := []uint64{0x100 * 8, 0x200 * 8, 0x300 * 8, 0x400 * 8, 0x500 * 8}
	for i, a := range addrs {
		f.StoreCommit(a, SSN(i+1), 8)
	}
	// First inserted address should have been evicted.
	if _, ok := f.Lookup(addrs[0]); ok {
		t.Error("oldest entry not evicted by FIFO")
	}
	if _, ok := f.Lookup(addrs[4]); !ok {
		t.Error("newest entry missing")
	}
	// Equality test on an evicted address forces re-execution (safe).
	if !f.TestBypassed(addrs[0], 8, 1, 0) {
		t.Error("evicted entry must force re-execution for bypassed load")
	}
}

// Property (safety): for any interleaving of committed stores and a final
// load, if a store younger than the load's SSNnvul wrote the load's exact
// address, the inequality test must force re-execution. Aliasing may cause
// false positives but never false negatives.
func TestTSSBFInequalitySafetyProperty(t *testing.T) {
	f := func(addrSel []uint8, loadSel uint8, nvul uint8) bool {
		filter := NewTSSBF(32, 4)
		if len(addrSel) > 60 {
			addrSel = addrSel[:60]
		}
		lastToAddr := make(map[uint64]SSN)
		for i, a := range addrSel {
			addr := uint64(a%16) * 8
			ssn := SSN(i + 1)
			filter.StoreCommit(addr, ssn, 8)
			lastToAddr[addr] = ssn
		}
		loadAddr := uint64(loadSel%16) * 8
		ssnNVul := SSN(nvul)
		reexec := filter.TestNonBypassed(loadAddr, ssnNVul)
		if last, ok := lastToAddr[loadAddr]; ok && last > ssnNVul && !reexec {
			return false // missed a vulnerable load: unsafe
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property (safety): the equality test never lets a bypassed load skip
// re-execution unless the last committed store to its address is exactly the
// predicted store and the predicted shift is consistent.
func TestTSSBFEqualitySafetyProperty(t *testing.T) {
	f := func(addrSel []uint8, loadSel, predSSN, shift uint8) bool {
		filter := NewTSSBF(32, 4)
		if len(addrSel) > 60 {
			addrSel = addrSel[:60]
		}
		lastToAddr := make(map[uint64]SSN)
		for i, a := range addrSel {
			addr := uint64(a%16) * 8
			ssn := SSN(i + 1)
			filter.StoreCommit(addr, ssn, 8)
			lastToAddr[addr] = ssn
		}
		loadAddr := uint64(loadSel%16) * 8
		skip := !filter.TestBypassed(loadAddr, 8, SSN(predSSN), shift%8)
		if !skip {
			return true // re-execution is always safe
		}
		// If it skipped, the prediction must have been exactly right.
		last, ok := lastToAddr[loadAddr]
		return ok && last == SSN(predSSN) && shift%8 == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestTSSBFEvictionSafetyForNonBypassed(t *testing.T) {
	// One set of 2 ways: the third distinct address evicts the first. A
	// non-bypassed load to the evicted address must still re-execute if it is
	// vulnerable to the evicted store, even though its tag now misses.
	f := NewTSSBF(2, 2)
	f.StoreCommit(0x100*8, 5, 8)
	f.StoreCommit(0x200*8, 6, 8)
	f.StoreCommit(0x300*8, 7, 8) // evicts SSN 5
	if f.maxEvicted != 5 {
		t.Fatalf("maxEvicted = %d, want 5", f.maxEvicted)
	}
	// Load vulnerable to SSN 5 (ssnNVul 4), tag misses: must re-execute.
	if !f.TestNonBypassed(0x100*8, 4) {
		t.Error("evicted conflicting store must force re-execution")
	}
	// Load not vulnerable to anything up to the evicted SSN: safe to skip.
	if f.TestNonBypassed(0x100*8, 5) {
		t.Error("load not vulnerable to the evicted store should skip re-execution")
	}
}
