package stats

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

var update = flag.Bool("update", false, "rewrite golden files")

// goldenTable builds a fixed table exercising every cell type the emitters
// must handle: strings (including a pipe that Markdown must escape), full-
// precision floats, and unsigned integers.
func goldenTable() *Table {
	tbl := NewTable("Golden: sample report",
		"benchmark", "config", "IPC", "cycles", "note")
	tbl.AddRow("gzip", "nosq-delay", 0.7581618168914124, uint64(5636), "ok")
	tbl.AddRow("g721.e", "assoc|sq", 1.25, uint64(1200), "pipe|cell")
	tbl.AddRow("applu", "perfect-smb", 0.5260271, uint64(7273), "")
	return tbl
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/stats -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("%s mismatch:\n--- got ---\n%s\n--- want ---\n%s", name, got, want)
	}
}

func TestRenderGolden(t *testing.T) {
	tbl := goldenTable()
	for _, format := range Formats() {
		got, err := tbl.Render(format)
		if err != nil {
			t.Fatalf("Render(%s): %v", format, err)
		}
		checkGolden(t, "table."+format+".golden", got)
	}
}

func TestRenderUnknownFormat(t *testing.T) {
	if _, err := goldenTable().Render("yaml"); err == nil {
		t.Fatal("unknown format should error")
	}
}

func TestJSONRoundTrip(t *testing.T) {
	b, err := goldenTable().JSON()
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Title   string                   `json:"title"`
		Columns []string                 `json:"columns"`
		Rows    []map[string]interface{} `json:"rows"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatalf("JSON output does not parse: %v", err)
	}
	if doc.Title != "Golden: sample report" || len(doc.Columns) != 5 || len(doc.Rows) != 3 {
		t.Errorf("unexpected document shape: %+v", doc)
	}
	// Numbers must stay numbers, at full precision.
	if ipc, ok := doc.Rows[0]["IPC"].(float64); !ok || ipc != 0.7581618168914124 {
		t.Errorf("IPC = %v, want full-precision float", doc.Rows[0]["IPC"])
	}
}

func TestCSVEscaping(t *testing.T) {
	tbl := NewTable("t", "a", "b")
	tbl.AddRow(`quote"and,comma`, 1.5)
	got := tbl.CSV()
	if !strings.Contains(got, `"quote""and,comma"`) {
		t.Errorf("CSV quoting broken: %q", got)
	}
}

func TestMarkdownEscapesPipes(t *testing.T) {
	got := goldenTable().Markdown()
	if !strings.Contains(got, `assoc\|sq`) {
		t.Errorf("pipe not escaped in Markdown:\n%s", got)
	}
}

// TestStorageRoundTrip: a table decoded from its storage form renders the
// same bytes as the original in every format, and fails where it fails: a
// NaN or infinite cell has no JSON rendering.
func TestStorageRoundTrip(t *testing.T) {
	cols := []string{"name", "int", "int64", "uint64", "float32", "float64", "bool"}
	finite := NewTable("Every kind: ünïcode | pipes", cols...)
	finite.AddRow("gzip|x", 128, int64(-7), uint64(1)<<53+1, float32(0.5260271), 0.7581618168914124, true)
	finite.AddRow("scénario/λ", -1, int64(math.MaxInt64), uint64(math.MaxUint64), float32(-3.4e38), math.Copysign(0, -1), false)
	special := NewTable("Special floats", cols...)
	special.AddRow("nan", 0, int64(0), uint64(0), float32(math.NaN()), math.NaN(), false)
	special.AddRow("inf", 0, int64(0), uint64(0), float32(math.Inf(1)), math.Inf(1), false)
	special.AddRow("-inf", 0, int64(0), uint64(0), float32(math.Inf(-1)), math.Inf(-1), false)
	for _, tbl := range []*Table{finite, special} {
		stored, err := json.Marshal(tbl)
		if err != nil {
			t.Fatal(err)
		}
		var got Table
		if err := json.Unmarshal(stored, &got); err != nil {
			t.Fatalf("%s: decoding %s: %v", tbl.Title, stored, err)
		}
		for _, format := range Formats() {
			want, wantErr := tbl.Render(format)
			out, err := got.Render(format)
			if out != want || fmt.Sprint(err) != fmt.Sprint(wantErr) {
				t.Errorf("%s, %s: decoded table renders\n%q (%v)\nwant\n%q (%v)", tbl.Title, format, out, err, want, wantErr)
			}
		}
	}
	if _, err := special.Render(FormatJSON); err == nil {
		t.Error("a NaN cell rendered as JSON")
	}
}

// TestStorageRejectsMalformed: a stored table that does not decode exactly
// is an error, not a table with zero cells.
func TestStorageRejectsMalformed(t *testing.T) {
	for _, stored := range []string{
		`{"columns":["a"],"rows":[["x:1"]]}`,         // unknown kind
		`{"columns":["a"],"rows":[["1"]]}`,           // no kind
		`{"columns":["a"],"rows":[["u64:-1"]]}`,      // out of range
		`{"columns":["a"],"rows":[["f64:1e999"]]}`,   // out of range
		`{"columns":["a"],"rows":[["b:maybe"]]}`,     // not a bool
		`{"columns":["a","b"],"rows":[["s:short"]]}`, // a cell short
		`{"columns":["a"],"rows":"s:x"}`,
	} {
		var tbl Table
		if err := json.Unmarshal([]byte(stored), &tbl); err == nil {
			t.Errorf("decoded %s", stored)
		}
	}
}

// TestAddRowRejectsOtherValues: AddRow stores only the kinds it names, one
// per column, and panics on anything else.
func TestAddRowRejectsOtherValues(t *testing.T) {
	for _, row := range [][]interface{}{
		{uint32(1)},
		{time.Second},
		{struct{}{}},
		{nil},
		{"a", "b"},
		{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("AddRow(%#v) did not panic", row)
				}
			}()
			NewTable("t", "a").AddRow(row...)
		}()
	}
}
