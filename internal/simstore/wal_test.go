package simstore

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/jsonl"
	"repro/internal/simapi"
)

func testRecord(i int) Record {
	return Record{
		Type:     RecSubmitted,
		Time:     time.Unix(int64(1700000000+i), 0).UTC(),
		JobID:    fmt.Sprintf("job-%06d", i+1),
		Seq:      i + 1,
		Client:   "tester",
		SpecHash: fmt.Sprintf("hash-%d", i),
		Spec:     &simapi.JobSpec{Experiment: "fig2", Iterations: 10 + i},
	}
}

func openOrDie(t *testing.T, path string, hooks jsonl.Hooks) (*WAL, []Record, int) {
	t.Helper()
	w, recs, corrupt, err := Open(path, hooks, nil)
	if err != nil {
		t.Fatal(err)
	}
	return w, recs, corrupt
}

func TestWALRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, recs, corrupt := openOrDie(t, path, jsonl.Hooks{})
	if len(recs) != 0 || corrupt != 0 {
		t.Fatalf("fresh WAL replayed %d records, %d corrupt", len(recs), corrupt)
	}
	want := []Record{
		testRecord(0),
		{Type: RecStarted, Time: time.Unix(1700000010, 0).UTC(), JobID: "job-000001"},
		{Type: RecCompleted, Time: time.Unix(1700000013, 0).UTC(), JobID: "job-000001",
			State: simapi.StateDone, Started: time.Unix(1700000011, 0).UTC(),
			Pairs:   &PairCounts{Total: 4, Cached: 1, Executed: 3},
			Reports: map[string]string{"csv": "a,b\n1,2\n"}},
		{Type: RecCanceled, Time: time.Unix(1700000014, 0).UTC(), JobID: "job-000002"},
	}
	for _, rec := range want {
		if err := w.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if got := w.AppendsSinceCompact(); got != len(want) {
		t.Fatalf("AppendsSinceCompact = %d, want %d", got, len(want))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	w2, got, corrupt := openOrDie(t, path, jsonl.Hooks{})
	defer w2.Close()
	if corrupt != 0 {
		t.Fatalf("clean log replayed %d corrupt lines", corrupt)
	}
	if len(got) != len(want) {
		t.Fatalf("replayed %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Type != want[i].Type || got[i].JobID != want[i].JobID {
			t.Fatalf("record %d = %+v, want %+v", i, got[i], want[i])
		}
	}
	if got[0].Spec == nil || got[0].Spec.Experiment != "fig2" {
		t.Fatalf("submitted record lost its spec: %+v", got[0])
	}
	if got[2].Reports["csv"] != "a,b\n1,2\n" {
		t.Fatalf("completed record lost its rendered report: %+v", got[2])
	}
	if got[2].Pairs == nil || got[2].Pairs.Executed != 3 {
		t.Fatalf("completed record lost its pair counts: %+v", got[2])
	}
	if !got[2].Started.Equal(want[2].Started) || !got[3].Started.IsZero() {
		t.Fatalf("start times %v and %v, want %v and none", got[2].Started, got[3].Started, want[2].Started)
	}
}

// TestWALFaultInjection drives the write/sync hooks through the classic
// crash shapes — a failed fsync, a torn (half-written) append, a truncated
// tail, a garbage tail — and asserts replay recovers every record that was
// made durable, skips the bad tail with a count (the repo-wide
// checkpoint-corruption convention), and never resurrects the lost record.
func TestWALFaultInjection(t *testing.T) {
	const n = 5 // records appended before the fault
	cases := []struct {
		name string
		// breakAt returns hooks that disrupt the (n+1)th append.
		hooks func(fail *bool) jsonl.Hooks
		// mangle post-processes the file after the crash, simulating what
		// the kernel left behind.
		mangle      func(t *testing.T, path string)
		wantErr     bool // the faulted append must surface an error
		wantRecs    int
		wantCorrupt int
	}{
		{
			name: "sync fails",
			hooks: func(fail *bool) jsonl.Hooks {
				return jsonl.Hooks{Sync: func(f *os.File) error {
					if *fail {
						return errors.New("injected: fsync lost")
					}
					return f.Sync()
				}}
			},
			// The write itself went through, so the line may or may not have
			// reached the disk. Drop it to model the worst case: the caller
			// was told the append failed, and the record is gone.
			mangle:      dropLastLine,
			wantErr:     true,
			wantRecs:    n,
			wantCorrupt: 0,
		},
		{
			name: "torn write",
			hooks: func(fail *bool) jsonl.Hooks {
				return jsonl.Hooks{Write: func(f *os.File, b []byte) (int, error) {
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
			name:        "truncated tail",
			hooks:       func(fail *bool) jsonl.Hooks { return jsonl.Hooks{} },
			mangle:      func(t *testing.T, path string) { truncateTail(t, path, 7) },
			wantRecs:    n, // the (n+1)th append succeeded, then truncation tore it
			wantCorrupt: 1,
		},
		{
			name:  "garbage tail",
			hooks: func(fail *bool) jsonl.Hooks { return jsonl.Hooks{} },
			mangle: func(t *testing.T, path string) {
				f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
				if err != nil {
					t.Fatal(err)
				}
				defer f.Close()
				if _, err := f.WriteString("{\"type\":\"submitted\"\x00\xff not json\n{also bad\n"); err != nil {
					t.Fatal(err)
				}
			},
			wantRecs:    n + 1, // all appends durable; only the garbage is skipped
			wantCorrupt: 2,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "wal.jsonl")
			fail := false
			w, _, _ := openOrDie(t, path, tc.hooks(&fail))
			for i := 0; i < n; i++ {
				if err := w.Append(testRecord(i)); err != nil {
					t.Fatalf("append %d: %v", i, err)
				}
			}
			fail = true
			err := w.Append(testRecord(n))
			if tc.wantErr && err == nil {
				t.Fatal("injected fault did not surface as an append error")
			}
			w.Close() // the crash; Close flushes whatever the hooks let through
			if tc.mangle != nil {
				tc.mangle(t, path)
			}

			w2, recs, corrupt := openOrDie(t, path, jsonl.Hooks{})
			defer w2.Close()
			if corrupt != tc.wantCorrupt {
				t.Errorf("corrupt = %d, want %d", corrupt, tc.wantCorrupt)
			}
			if len(recs) != tc.wantRecs {
				t.Fatalf("replayed %d records, want %d", len(recs), tc.wantRecs)
			}
			for i, rec := range recs {
				if rec.JobID != fmt.Sprintf("job-%06d", i+1) {
					t.Errorf("record %d = %q, want job-%06d (durable prefix must replay in order)", i, rec.JobID, i+1)
				}
			}
			// The log stays appendable after recovery: the next record lands
			// on its own line even when the tail was torn mid-line.
			if err := w2.Append(testRecord(n + 1)); err != nil {
				t.Fatal(err)
			}
			if err := w2.Close(); err != nil {
				t.Fatal(err)
			}
			_, recs3, _ := openOrDie(t, path, jsonl.Hooks{})
			found := false
			for _, rec := range recs3 {
				if rec.JobID == fmt.Sprintf("job-%06d", n+2) {
					found = true
				}
			}
			if !found {
				t.Error("append after torn-tail recovery did not replay")
			}
		})
	}
}

// dropLastLine removes the final line, complete or not.
func dropLastLine(t *testing.T, path string) {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	s := strings.TrimRight(string(b), "\n")
	if i := strings.LastIndexByte(s, '\n'); i >= 0 {
		s = s[:i+1]
	} else {
		s = ""
	}
	if err := os.WriteFile(path, []byte(s), 0o644); err != nil {
		t.Fatal(err)
	}
}

// truncateTail chops k bytes off the file, tearing the last record.
func truncateTail(t *testing.T, path string, k int64) {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(path, st.Size()-k); err != nil {
		t.Fatal(err)
	}
}

// TestWALReplayNeverDuplicatesCompleted encodes the replay rule the server
// relies on: once a job has a terminal record, later records for the same
// job id (impossible in a well-formed log, but a compaction bug or manual
// edit could produce them) do not resurrect it. The rule lives in the
// server's recovery, but the invariant it rests on — replay returns records
// in append order, so the terminal record is seen — is the WAL's to keep.
func TestWALReplayNeverDuplicatesCompleted(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _, _ := openOrDie(t, path, jsonl.Hooks{})
	w.Append(testRecord(0))
	w.Append(Record{Type: RecCompleted, Time: time.Now(), JobID: "job-000001", State: simapi.StateDone})
	w.Append(Record{Type: RecStarted, Time: time.Now(), JobID: "job-000001"})
	w.Close()
	_, recs, corrupt := openOrDie(t, path, jsonl.Hooks{})
	if corrupt != 0 {
		t.Fatalf("corrupt = %d", corrupt)
	}
	if len(recs) != 3 {
		t.Fatalf("replayed %d records, want 3", len(recs))
	}
	if recs[1].Type != RecCompleted || recs[2].Type != RecStarted {
		t.Fatalf("replay out of append order: %v then %v", recs[1].Type, recs[2].Type)
	}
}

func TestWALCompact(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _, _ := openOrDie(t, path, jsonl.Hooks{})
	for i := 0; i < 10; i++ {
		if err := w.Append(testRecord(i)); err != nil {
			t.Fatal(err)
		}
	}
	snapshot := []Record{testRecord(7), testRecord(8), testRecord(9)}
	if err := w.Compact(snapshot); err != nil {
		t.Fatal(err)
	}
	if got := w.AppendsSinceCompact(); got != 0 {
		t.Fatalf("AppendsSinceCompact after Compact = %d", got)
	}
	// Appends after compaction land in the rewritten file.
	if err := w.Append(testRecord(10)); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, recs, corrupt := openOrDie(t, path, jsonl.Hooks{})
	defer w2.Close()
	if corrupt != 0 {
		t.Fatalf("corrupt = %d", corrupt)
	}
	if len(recs) != 4 {
		t.Fatalf("replayed %d records, want 4 (3 snapshot + 1 append)", len(recs))
	}
	if recs[0].JobID != "job-000008" || recs[3].JobID != "job-000011" {
		t.Fatalf("unexpected replay contents: first %s, last %s", recs[0].JobID, recs[3].JobID)
	}
	if _, err := os.Stat(path + ".compact"); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("compaction temp file left behind: %v", err)
	}
}

func TestWALClosedAppendFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wal.jsonl")
	w, _, _ := openOrDie(t, path, jsonl.Hooks{})
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if err := w.Append(testRecord(0)); err == nil {
		t.Fatal("append on closed WAL succeeded")
	}
}

func TestDecodeRecordRejectsMalformed(t *testing.T) {
	bad := []string{
		`not json at all`,
		`{}`,
		`{"type":"submitted"}`, // no job id / seq / spec
		`{"type":"submitted","job_id":"j","seq":1}`, // no spec
		`{"type":"started"}`,
		`{"type":"completed","job_id":"j","state":"queued"}`, // non-terminal state
		`{"type":"warp-drive","job_id":"j"}`,                 // unknown type
	}
	for _, line := range bad {
		if _, err := DecodeRecord([]byte(line)); err == nil {
			t.Errorf("DecodeRecord(%q) accepted, want error", line)
		}
	}
}
