package stats

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
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
