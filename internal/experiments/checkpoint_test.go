package experiments

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"repro/internal/core"
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

	// And the whole file round-trips through the lookup with zero corruption.
	loaded, corrupt, err := w.Lookup(ckKeys(entries...))
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("lookup found %d corrupt lines in a cleanly closed checkpoint", corrupt)
	}
	if len(loaded) != len(entries) {
		t.Fatalf("looked up %d entries, want %d", len(loaded), len(entries))
	}
	for i, e := range entries {
		if got := loaded[e.Key()]; got.Key() != e.Key() || got.Run.Cycles != e.Run.Cycles {
			t.Errorf("entry %d round-tripped as %+v", i, got)
		}
	}
}

func ckKeys(entries ...CheckpointEntry) []string {
	keys := make([]string, len(entries))
	for i, e := range entries {
		keys[i] = e.Key()
	}
	return keys
}

// TestCheckpointLookupKeepsOnlyAskedKeys: a lookup returns the stored entries
// among the asked keys and nothing else, a later line replacing an earlier
// one, however many other pairs the file holds.
func TestCheckpointLookupKeepsOnlyAskedKeys(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.jsonl")
	s := &checkpointFileStore{path: path}
	if err := s.open(); err != nil {
		t.Fatal(err)
	}
	for _, e := range []CheckpointEntry{ckEntry("gzip", "nosq-delay", 1), ckEntry("applu", "nosq-delay", 2),
		ckEntry("gzip", "nosq-delay", 3), ckEntry("mesa.o", "nosq-delay", 4)} {
		if err := s.Append(e); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.log.Close(); err != nil {
		t.Fatal(err)
	}
	gzip, absent := ckEntry("gzip", "nosq-delay", 0), ckEntry("gzip", "baseline", 0)
	found, corrupt, err := s.Lookup(ckKeys(gzip, absent))
	if err != nil || corrupt != 0 {
		t.Fatalf("Lookup: %d corrupt, err %v", corrupt, err)
	}
	if len(found) != 1 || found[gzip.Key()].Run.Cycles != 3 {
		t.Fatalf("Lookup = %+v, want only gzip's later line", found)
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
	loaded, corrupt, err := s.Lookup(ckKeys(ckEntry("gzip", "nosq-delay", 1)))
	if err != nil || corrupt != 0 || len(loaded) != 1 {
		t.Fatalf("Lookup = %d entries, %d corrupt, err %v", len(loaded), corrupt, err)
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

	keys := ckKeys(ckEntry("gzip", "nosq-delay", 1), ckEntry("applu", "nosq-delay", 2))
	s = &checkpointFileStore{path: path}
	if loaded, corrupt, err := s.Lookup(keys); err != nil || corrupt != 1 || len(loaded) != 1 {
		t.Fatalf("after the tear: Lookup = %d entries, %d corrupt, err %v; want 1, 1", len(loaded), corrupt, err)
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
	loaded, corrupt, err := s.Lookup(keys)
	if err != nil || corrupt != 1 || len(loaded) != 2 {
		t.Fatalf("after the append: Lookup = %d entries, %d corrupt, err %v; want 2, 1", len(loaded), corrupt, err)
	}
	if e := loaded[keys[1]]; e.Benchmark != "applu" || e.Run.Cycles != 2 {
		t.Fatalf("appended entry replayed as %+v", e)
	}
}

// lookupRecorder is a ResultStore that records every lookup, serves the
// entries it was seeded with, and drops appends.
type lookupRecorder struct {
	lookups [][]string
	stored  map[string]CheckpointEntry
}

func (r *lookupRecorder) Lookup(keys []string) (map[string]CheckpointEntry, int, error) {
	r.lookups = append(r.lookups, append([]string(nil), keys...))
	found := make(map[string]CheckpointEntry)
	for _, k := range keys {
		if e, ok := r.stored[k]; ok {
			found[k] = e
		}
	}
	return found, 0, nil
}

func (r *lookupRecorder) Append(CheckpointEntry) error { return nil }

// TestSweepLooksUpItsGridOnce: the engine asks its store once, for exactly
// the pair keys of its whole grid in pair order — other shards' pairs
// included, since a stored pair resumes wherever it falls.
func TestSweepLooksUpItsGridOnce(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.NoSQDelay, core.Baseline}, 0)
	configs := make([]string, 0, len(cfgs))
	for k := range cfgs {
		configs = append(configs, k)
	}
	sort.Strings(configs)
	var grid []CheckpointEntry
	for _, b := range benchmarks {
		for _, k := range configs {
			grid = append(grid, CheckpointEntry{Experiment: "sweep", Iterations: 25, Benchmark: b, Config: k})
		}
	}
	want := ckKeys(grid...)
	rec := &lookupRecorder{stored: map[string]CheckpointEntry{want[0]: grid[0]}}
	opts := Options{Iterations: 25, Parallelism: 1, Shards: 2, ShardIndex: 1, Store: rec}

	_, sum, err := runSweep(context.Background(), benchmarkSource("sweep", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.lookups) != 1 {
		t.Fatalf("the engine looked up its store %d times, want once", len(rec.lookups))
	}
	if !reflect.DeepEqual(rec.lookups[0], want) {
		t.Fatalf("looked up %q, want the grid's pair keys %q", rec.lookups[0], want)
	}
	if sum.Resumed != 1 || sum.SkippedShard != 1 || sum.Executed != 2 {
		t.Fatalf("summary = %+v, want 1 resumed (shard 0's stored pair), 1 skipped, 2 executed", sum)
	}
}
