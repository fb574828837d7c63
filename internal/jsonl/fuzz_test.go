package jsonl

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// FuzzScanAppend fuzzes replay and tail repair over arbitrary file bytes,
// with json.Valid as the keep rule. Scan must account for every non-blank
// line as kept or corrupt; and after Open and one Append, a rescan must keep
// exactly one more line — the appended one, last — with the corrupt count
// unchanged, whatever debris the file ended in.
func FuzzScanAppend(f *testing.F) {
	f.Add([]byte("{\"i\":0}\n{\"i\":1}\n"))
	f.Add([]byte("{\"i\":0}\n{\"i\":1}"))    // valid last line, no newline
	f.Add([]byte("{\"i\":0}\n{\"i\":"))      // torn tail
	f.Add([]byte("{\"i\":0}\n\n  \n{\"i\"")) // blank lines, torn tail
	f.Add([]byte("\x00\xff garbage\r\n[1,2"))
	f.Add([]byte(""))
	f.Add([]byte("\n"))

	appended := []byte(`{"appended":true}`)
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "log.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		scan := func() (kept [][]byte, corrupt int) {
			corrupt, err := Scan(path, func(line []byte) bool {
				if !json.Valid(line) {
					return false
				}
				kept = append(kept, bytes.Clone(line))
				return true
			})
			if err != nil {
				t.Fatal(err)
			}
			return kept, corrupt
		}

		kept, corrupt := scan()
		nonBlank := 0
		for _, l := range bytes.Split(data, []byte("\n")) {
			if len(bytes.TrimSpace(l)) > 0 {
				nonBlank++
			}
		}
		if len(kept)+corrupt != nonBlank {
			t.Fatalf("kept %d + corrupt %d != %d non-blank lines in %q", len(kept), corrupt, nonBlank, data)
		}

		l, err := Open(path, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Append(bytes.Clone(appended)); err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		kept2, corrupt2 := scan()
		if len(kept2) != len(kept)+1 || corrupt2 != corrupt || !bytes.Equal(kept2[len(kept2)-1], appended) {
			t.Fatalf("after append to %q: kept %d (last %q), corrupt %d; want kept %d ending in the append, corrupt %d",
				data, len(kept2), kept2[len(kept2)-1], corrupt2, len(kept)+1, corrupt)
		}
	})
}
