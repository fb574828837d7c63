package stats

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func TestRunDerivedMetrics(t *testing.T) {
	r := Run{
		Cycles:               1000,
		Committed:            2000,
		CommittedLoads:       500,
		InWindowComm:         50,
		InWindowPartial:      10,
		BypassMispredictions: 5,
		DelayedLoads:         25,
		DCacheCoreReads:      400,
		DCacheBackendReads:   20,
	}
	if got := r.IPC(); got != 2.0 {
		t.Errorf("IPC = %v", got)
	}
	if got := r.MispredictsPer10kLoads(); got != 100 {
		t.Errorf("mispredicts/10k = %v", got)
	}
	if got := r.PctLoadsDelayed(); got != 5 {
		t.Errorf("pct delayed = %v", got)
	}
	if got := r.PctInWindowComm(); got != 10 {
		t.Errorf("pct comm = %v", got)
	}
	if got := r.PctInWindowPartial(); got != 2 {
		t.Errorf("pct partial = %v", got)
	}
	if got := r.TotalDCacheReads(); got != 420 {
		t.Errorf("total reads = %v", got)
	}
}

func TestZeroDenominators(t *testing.T) {
	var r Run
	if r.IPC() != 0 || r.MispredictsPer10kLoads() != 0 || r.PctLoadsDelayed() != 0 ||
		r.PctInWindowComm() != 0 || r.PctInWindowPartial() != 0 {
		t.Error("zero-denominator metrics should be 0")
	}
	if RelativeExecutionTime(Run{Cycles: 5}, Run{}) != 0 {
		t.Error("relative time with zero base should be 0")
	}
}

func TestRelativeExecutionTime(t *testing.T) {
	base := Run{Cycles: 1000}
	faster := Run{Cycles: 900}
	if got := RelativeExecutionTime(faster, base); got != 0.9 {
		t.Errorf("relative = %v, want 0.9", got)
	}
}

func TestGeoMean(t *testing.T) {
	if got := GeoMean([]float64{1, 4}); math.Abs(got-2) > 1e-12 {
		t.Errorf("GeoMean(1,4) = %v, want 2", got)
	}
	if GeoMean(nil) != 0 {
		t.Error("empty geomean should be 0")
	}
	if GeoMean([]float64{1, -1}) != 0 {
		t.Error("non-positive geomean should be 0")
	}
}

func TestMean(t *testing.T) {
	if got := Mean([]float64{1, 2, 3}); got != 2 {
		t.Errorf("Mean = %v", got)
	}
	if Mean(nil) != 0 {
		t.Error("empty mean should be 0")
	}
}

func TestTableRendering(t *testing.T) {
	tbl := NewTable("Demo", "bench", "value")
	tbl.AddRow("gzip", 1.2345)
	tbl.AddRow("mcf", 42)
	out := tbl.String()
	if !strings.Contains(out, "Demo") || !strings.Contains(out, "gzip") || !strings.Contains(out, "1.234") {
		t.Errorf("table output missing content:\n%s", out)
	}
	if tbl.NumRows() != 2 {
		t.Errorf("NumRows = %d", tbl.NumRows())
	}
	rows := tbl.Rows()
	rows[0][0] = "mutated"
	if tbl.Rows()[0][0] == "mutated" {
		t.Error("Rows should return a copy")
	}
}

// TestTableStringPadsRunes pins how a non-ASCII cell pads: column widths
// count bytes, while the padding counts runes, as fmt's %-*s does.
func TestTableStringPadsRunes(t *testing.T) {
	tbl := NewTable("t", "name", "v")
	tbl.AddRow("héllo", 1) // 6 bytes, 5 runes
	tbl.AddRow("ab", 2)
	want := "t\n" +
		"name    v\n" +
		"------  -\n" +
		"héllo   1\n" +
		"ab      2\n"
	if got := tbl.String(); got != want {
		t.Errorf("String() =\n%q\nwant\n%q", got, want)
	}
}

// sweepTable is shaped like a sweep report: 11 rows of 14 columns, one of
// them named by a non-ASCII scenario.
func sweepTable() *Table {
	cols := []string{"benchmark", "config", "window", "cycles", "insts", "IPC",
		"rel_time", "bypassed", "delayed", "mispred/10k", "flushes", "reexec",
		"dcache_reads", "sq_fwd"}
	tbl := NewTable("Sweep", cols...)
	for i := 0; i < 11; i++ {
		name := fmt.Sprintf("bench-%d", i)
		if i == 5 {
			name = "scénario/ünïcode-λ"
		}
		tbl.AddRow(name, "nosq-delay", 128, uint64(100000+i), uint64(90000+i), 0.9+float64(i)/100,
			1.0, uint64(i), uint64(2*i), 1.5, uint64(i), uint64(3*i), uint64(5000+i), uint64(0))
	}
	return tbl
}

// TestTableStringAllocs bounds the allocations of rendering a sweep-sized
// table as text: the column widths and the builder's growth, not one or more
// per cell (the table has 168 cells, header included).
func TestTableStringAllocs(t *testing.T) {
	tbl := sweepTable()
	if n := testing.AllocsPerRun(20, func() { _ = tbl.String() }); n > 16 {
		t.Errorf("String() made %v allocations, want at most 16", n)
	}
}

// Property: the geometric mean of positive values always lies between the
// minimum and maximum.
func TestGeoMeanBoundsProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, 0, len(raw))
		lo, hi := math.MaxFloat64, 0.0
		for _, r := range raw {
			x := float64(r%1000)/100 + 0.01
			xs = append(xs, x)
			lo = math.Min(lo, x)
			hi = math.Max(hi, x)
		}
		g := GeoMean(xs)
		return g >= lo-1e-9 && g <= hi+1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
