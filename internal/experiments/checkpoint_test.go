package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/stats"
)

func ckEntry(bench, cfg string, cycles uint64) CheckpointEntry {
	return CheckpointEntry{Experiment: "sweep", Iterations: 25, Benchmark: bench, Config: cfg,
		Run: stats.Run{Benchmark: bench, Config: cfg, Cycles: cycles}}
}

// TestCheckpointWriterDurablePerAppend: every append to the checkpoint file
// store must be fully on the file (flushed through any buffering) before the
// call returns — an
// interrupted sweep resumes from exactly the pairs it was told were
// recorded. This is the regression test for buffered writes lingering in
// memory: a crash between append and Close would otherwise leave a
// truncated (or missing) final JSONL line that the corrupt-line skipper
// silently discards, re-running finished work.
func TestCheckpointWriterDurablePerAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	w := &checkpointFileStore{path: path}
	if err := w.open(); err != nil {
		t.Fatal(err)
	}
	entries := []CheckpointEntry{
		ckEntry("gzip", "nosq-delay", 100),
		ckEntry("applu", "nosq-delay", 200),
		ckEntry("mesa.o", "assoc-sq-storesets", 300),
	}
	for i, e := range entries {
		if err := w.Append(e); err != nil {
			t.Fatal(err)
		}
		// Before Close — as if the process died right here: the file must
		// already hold i+1 complete, parseable lines.
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(b) == 0 || b[len(b)-1] != '\n' {
			t.Fatalf("after append %d: file does not end in a complete line: %q", i+1, b)
		}
		lines := bytes.Split(bytes.TrimSuffix(b, []byte("\n")), []byte("\n"))
		if len(lines) != i+1 {
			t.Fatalf("after append %d: %d lines on disk", i+1, len(lines))
		}
		for _, line := range lines {
			var got CheckpointEntry
			if err := json.Unmarshal(line, &got); err != nil {
				t.Fatalf("after append %d: unparseable line %q: %v", i+1, line, err)
			}
		}
	}
	if err := w.log.Close(); err != nil {
		t.Fatal(err)
	}

	// And the whole file round-trips through the loader with zero corruption.
	loaded, corrupt, err := w.Load()
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("loader found %d corrupt lines in a cleanly closed checkpoint", corrupt)
	}
	if len(loaded) != len(entries) {
		t.Fatalf("loaded %d entries, want %d", len(loaded), len(entries))
	}
	for i, e := range entries {
		if loaded[i].Key() != e.Key() || loaded[i].Run.Cycles != e.Run.Cycles {
			t.Errorf("entry %d round-tripped as %+v", i, loaded[i])
		}
	}
}

// TestCheckpointFileStoreLazyOpen: a sweep with nothing left to run — every
// pair resumed, or owned by another shard — never opens the store, so it
// creates no checkpoint file; one that opens it round-trips its appends.
func TestCheckpointFileStoreLazyOpen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	opts := Options{Iterations: 25, Benchmarks: []string{"gzip"}, Configs: []string{"nosq-delay"},
		Checkpoint: path, Shards: 2, ShardIndex: 1} // the grid's only pair belongs to shard 0
	if _, err := Sweep(context.Background(), opts); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatal("a sweep with no pending pairs created a checkpoint file")
	}
	s := &checkpointFileStore{path: path}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("gzip", "nosq-delay", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, corrupt, err := s.Load()
	if err != nil || corrupt != 0 || len(loaded) != 1 {
		t.Fatalf("Load = %d entries, %d corrupt, err %v", len(loaded), corrupt, err)
	}
}

// TestCheckpointTornTailAppend: a crash mid-append leaves a torn final line.
// The next append after a restart must land on its own line instead of
// concatenating onto the fragment, so the checkpoint keeps both entries and
// counts only the fragment as corrupt.
func TestCheckpointTornTailAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	s := &checkpointFileStore{path: path}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("gzip", "nosq-delay", 1)); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"experiment":"sweep","benchmark":"app`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	s = &checkpointFileStore{path: path}
	if loaded, corrupt, err := s.Load(); err != nil || corrupt != 1 || len(loaded) != 1 {
		t.Fatalf("after the tear: Load = %d entries, %d corrupt, err %v; want 1, 1", len(loaded), corrupt, err)
	}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	if err := s.Append(ckEntry("applu", "nosq-delay", 2)); err != nil {
		t.Fatal(err)
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	loaded, corrupt, err := s.Load()
	if err != nil || corrupt != 1 || len(loaded) != 2 {
		t.Fatalf("after the append: Load = %d entries, %d corrupt, err %v; want 2, 1", len(loaded), corrupt, err)
	}
	if loaded[1].Benchmark != "applu" {
		t.Fatalf("appended entry replayed as %+v", loaded[1])
	}
}
