package jsonl

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// rec is the test record: {"i":N}, optionally padded.
type rec struct {
	I   int    `json:"i"`
	Pad string `json:"pad,omitempty"`
}

func line(i int) []byte {
	b, _ := json.Marshal(rec{I: i})
	return b
}

// scanRecs replays path, returning the decoded record numbers in file order.
func scanRecs(t *testing.T, path string) (got []int, corrupt int) {
	t.Helper()
	corrupt, err := Scan(path, func(line []byte) bool {
		var r rec
		if json.Unmarshal(line, &r) != nil {
			return false
		}
		got = append(got, r.I)
		return true
	})
	if err != nil {
		t.Fatal(err)
	}
	return got, corrupt
}

func appendFile(t *testing.T, path, s string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(s); err != nil {
		t.Fatal(err)
	}
}

func editFile(t *testing.T, path string, edit func(string) string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, []byte(edit(string(b))), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestFaultInjection drives the write/sync hooks and the file left behind
// through the crash shapes — a failed fsync, a torn append, a truncated or
// garbage tail, a last line with no newline, blank lines, a missing file and
// an over-long line — and asserts replay keeps every durable record in
// order, counts only the debris as corrupt, and that after recovery the next
// append lands on its own line and replays last.
func TestFaultInjection(t *testing.T) {
	const n = 5 // records appended before the fault
	cases := []struct {
		name string
		// hooks disrupt the (n+1)th append once *fail is set.
		hooks func(fail *bool) Hooks
		// mangle post-processes the file after the crash, simulating what
		// the kernel left behind.
		mangle      func(t *testing.T, path string)
		wantErr     bool // the faulted append must surface an error
		wantRecs    int  // records 0..wantRecs-1 replay, in order
		wantCorrupt int
	}{
		{
			name: "sync fails",
			hooks: func(fail *bool) Hooks {
				return Hooks{Sync: func(f *os.File) error {
					if *fail {
						return errors.New("injected: fsync lost")
					}
					return f.Sync()
				}}
			},
			// The write went through, so the line may or may not have
			// reached the disk. Drop it to model the worst case: the caller
			// was told the append failed, and the record is gone.
			mangle: func(t *testing.T, path string) {
				editFile(t, path, func(s string) string {
					s = strings.TrimSuffix(s, "\n")
					return s[:strings.LastIndexByte(s, '\n')+1]
				})
			},
			wantErr:  true,
			wantRecs: n,
		},
		{
			name: "torn write",
			hooks: func(fail *bool) Hooks {
				return Hooks{Write: func(f *os.File, b []byte) (int, error) {
					if *fail {
						// Half the record reaches the disk, no newline.
						k, _ := f.Write(b[:len(b)/2])
						return k, errors.New("injected: torn write")
					}
					return f.Write(b)
				}}
			},
			wantErr:     true,
			wantRecs:    n,
			wantCorrupt: 1,
		},
		{
			name: "truncated tail",
			mangle: func(t *testing.T, path string) {
				editFile(t, path, func(s string) string { return s[:len(s)-3] })
			},
			wantRecs:    n, // the (n+1)th append succeeded, then truncation tore it
			wantCorrupt: 1,
		},
		{
			name: "garbage tail",
			mangle: func(t *testing.T, path string) {
				appendFile(t, path, "{\"i\":\x00\xff not json\n{also bad\n")
			},
			wantRecs:    n + 1,
			wantCorrupt: 2,
		},
		{
			name: "valid last line without newline",
			mangle: func(t *testing.T, path string) {
				editFile(t, path, func(s string) string { return strings.TrimSuffix(s, "\n") })
			},
			wantRecs: n + 1,
		},
		{
			// Two processes opening one shared file can each repair the same
			// torn tail, leaving a spurious blank line; it must not count.
			name: "blank lines between records",
			mangle: func(t *testing.T, path string) {
				editFile(t, path, func(s string) string { return strings.Replace(s, "\n", "\n\n  \n", 2) })
			},
			wantRecs: n + 1,
		},
		{
			name: "missing file",
			mangle: func(t *testing.T, path string) {
				if err := os.Remove(path); err != nil {
					t.Fatal(err)
				}
			},
		},
		{
			name: "line over 1 MiB",
			mangle: func(t *testing.T, path string) {
				b, _ := json.Marshal(rec{I: n + 1, Pad: strings.Repeat("x", 2<<20)})
				appendFile(t, path, string(b)+"\n")
			},
			wantRecs: n + 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log.jsonl")
			fail := false
			var hooks Hooks
			if tc.hooks != nil {
				hooks = tc.hooks(&fail)
			}
			l, err := Open(path, hooks)
			if err != nil {
				t.Fatal(err)
			}
			appendSync := func(i int) error {
				if err := l.Append(line(i)); err != nil {
					return err
				}
				return l.Sync()
			}
			for i := 0; i < n; i++ {
				if err := appendSync(i); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			fail = true
			if err := appendSync(n); tc.wantErr && err == nil {
				t.Fatal("injected fault did not surface as an append error")
			}
			l.Close() // the crash; its own fsync may fail too
			if tc.mangle != nil {
				tc.mangle(t, path)
			}

			got, corrupt := scanRecs(t, path)
			if corrupt != tc.wantCorrupt {
				t.Errorf("corrupt = %d, want %d", corrupt, tc.wantCorrupt)
			}
			if len(got) != tc.wantRecs {
				t.Fatalf("replayed %d records, want %d", len(got), tc.wantRecs)
			}
			for i, r := range got {
				if r != i {
					t.Fatalf("replayed %v, want 0..%d in order", got, tc.wantRecs-1)
				}
			}

			// Recovery: the log stays appendable, and the next record lands
			// on its own line even when the tail was torn mid-line.
			l2, err := Open(path, Hooks{})
			if err != nil {
				t.Fatal(err)
			}
			if err := l2.Append(line(-1)); err != nil {
				t.Fatal(err)
			}
			if err := l2.Close(); err != nil {
				t.Fatal(err)
			}
			got2, corrupt2 := scanRecs(t, path)
			if len(got2) != len(got)+1 || got2[len(got2)-1] != -1 || corrupt2 != corrupt {
				t.Fatalf("after recovery append: replayed %v with %d corrupt, want %v then -1 with %d corrupt",
					got2, corrupt2, got, corrupt)
			}
		})
	}
}

// TestConcurrentAppend: appends from many goroutines never interleave within
// a line. Run it under -race.
func TestConcurrentAppend(t *testing.T) {
	const writers, each = 8, 200
	path := filepath.Join(t.TempDir(), "log.jsonl")
	l, err := Open(path, Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	pad := strings.Repeat("p", 4096) // long lines give an interleaving room to show
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				b, _ := json.Marshal(rec{I: w*each + i, Pad: pad})
				if err := l.Append(b); err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	got, corrupt := scanRecs(t, path)
	if corrupt != 0 || len(got) != writers*each {
		t.Fatalf("replayed %d records, %d corrupt; want %d, 0", len(got), corrupt, writers*each)
	}
	seen := make(map[int]bool, len(got))
	for _, i := range got {
		seen[i] = true
	}
	if len(seen) != writers*each {
		t.Fatalf("replayed %d distinct records, want %d", len(seen), writers*each)
	}
}

// TestRewriteSyncsBeforeAndAfterRename: Rewrite must fsync the temp file
// before renaming it over the log (or the rename could publish unwritten
// data), and fsync the directory after (or a power loss could revert the
// name to the pre-rewrite file, losing every record synced since).
func TestRewriteSyncsBeforeAndAfterRename(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "log.jsonl")
	tmp := path + ".compact"
	var syncs []string
	hooks := Hooks{Sync: func(f *os.File) error {
		_, tmpErr := os.Stat(tmp)
		renamed := errors.Is(tmpErr, os.ErrNotExist)
		syncs = append(syncs, fmt.Sprintf("%s renamed=%v", f.Name(), renamed))
		return f.Sync()
	}}
	l, err := Open(path, hooks)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if err := l.Append(line(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Rewrite([][]byte{line(2), line(3)}); err != nil {
		t.Fatal(err)
	}
	want := []string{tmp + " renamed=false", dir + " renamed=true"}
	if fmt.Sprint(syncs) != fmt.Sprint(want) {
		t.Fatalf("syncs = %q, want %q", syncs, want)
	}
	// Appends after a rewrite land in the new file.
	if err := l.Append(line(4)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, corrupt := scanRecs(t, path); fmt.Sprint(got) != "[2 3 4]" || corrupt != 0 {
		t.Fatalf("after rewrite: replayed %v with %d corrupt, want [2 3 4]", got, corrupt)
	}
}

// TestRewriteFailureKeepsLog: a rewrite that fails before its rename leaves
// the log's contents and its append handle as they were.
func TestRewriteFailureKeepsLog(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	fail := false
	l, err := Open(path, Hooks{Sync: func(f *os.File) error {
		if fail {
			return errors.New("injected: fsync lost")
		}
		return f.Sync()
	}})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(line(0)); err != nil {
		t.Fatal(err)
	}
	fail = true
	if err := l.Rewrite([][]byte{line(9)}); err == nil {
		t.Fatal("rewrite with a failing temp-file fsync succeeded")
	}
	fail = false
	if err := l.Append(line(1)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if got, _ := scanRecs(t, path); fmt.Sprint(got) != "[0 1]" {
		t.Fatalf("replayed %v, want [0 1]", got)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("temp file left behind: %v", err)
	}
}

func TestClosedLogFails(t *testing.T) {
	l, err := Open(filepath.Join(t.TempDir(), "log.jsonl"), Hooks{})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	for name, err := range map[string]error{
		"Append":  l.Append(line(0)),
		"Sync":    l.Sync(),
		"Rewrite": l.Rewrite(nil),
	} {
		if !errors.Is(err, errClosed) {
			t.Errorf("%s on a closed log = %v, want errClosed", name, err)
		}
	}
}

// TestOpenRepairsOnlyTornTail: Open writes nothing to a file that already
// ends in a newline (or is empty), so reopening never grows a clean log.
func TestOpenRepairsOnlyTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "log.jsonl")
	for _, content := range []string{"", "{\"i\":0}\n"} {
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := Open(path, Hooks{})
		if err != nil {
			t.Fatal(err)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		if b, _ := os.ReadFile(path); !bytes.Equal(b, []byte(content)) {
			t.Errorf("Open changed %q to %q", content, b)
		}
	}
}
