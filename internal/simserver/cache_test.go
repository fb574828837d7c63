package simserver

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/experiments"
	"repro/internal/stats"
)

func entry(bench, cfg string, cycles uint64) experiments.CheckpointEntry {
	return experiments.CheckpointEntry{
		Experiment: "sweep", Iterations: 25, Benchmark: bench, Config: cfg,
		Run: stats.Run{Benchmark: bench, Config: cfg, Cycles: cycles, Committed: 10 * cycles},
	}
}

func TestResultCachePersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(entry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Append(entry("applu", "nosq-delay", 200)); err != nil {
		t.Fatal(err)
	}
	// Idempotent: re-appending a cached entry must not duplicate the record.
	if err := c.Append(entry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	re, corrupt, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 0 {
		t.Fatalf("reopen reported %d corrupt lines", corrupt)
	}
	if re.Len() != 2 {
		t.Fatalf("reopened cache has %d entries, want 2", re.Len())
	}
	entries, _, err := re.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("Load returned %d entries, want 2", len(entries))
	}
}

// TestResultCacheScopedByCodeRevision: entries persisted by one binary
// revision stay resident but are never served to another — stale simulator
// output must re-run, not resurface.
func TestResultCacheScopedByCodeRevision(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	a, _, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(entry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	b, corrupt, err := OpenResultCache(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if corrupt != 0 {
		t.Fatalf("rev-b counted %d of rev-a's lines as corrupt; stale lines are valid records", corrupt)
	}
	entries, _, err := b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("rev-b Load served %d rev-a entries", len(entries))
	}
	// The new revision recomputes and stores its own copy alongside.
	if err := b.Append(entry("gzip", "nosq-delay", 101)); err != nil {
		t.Fatal(err)
	}
	entries, _, err = b.Load()
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 || entries[0].Run.Cycles != 101 {
		t.Fatalf("rev-b Load = %+v, want its own entry", entries)
	}
}

func TestResultCacheSkipsCorruptLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(entry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// Simulate a crash mid-write: a truncated trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"key":"abc","entry":{"benchmark":"tru`)
	f.Close()

	re, corrupt, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1", corrupt)
	}
	if re.Len() != 1 {
		t.Fatalf("entries = %d, want the intact one", re.Len())
	}
}

func TestResultCacheHitAccounting(t *testing.T) {
	c, _, err := OpenResultCache("", "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	c.RecordHits(3)
	c.RecordMisses(1)
	if c.Hits() != 3 || c.Misses() != 1 {
		t.Fatalf("hits/misses = %d/%d", c.Hits(), c.Misses())
	}
	if got := c.HitRate(); got != 0.75 {
		t.Fatalf("hit rate = %v, want 0.75", got)
	}
}

// TestResultCacheTornTailAppend: after a crash tore the final line, the
// first entry appended by the restarted server must land on its own line
// instead of concatenating onto the fragment and being lost with it.
func TestResultCacheTornTailAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	c, _, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(entry("gzip", "nosq-delay", 100)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"abc","entry":{"benchmark":"tru`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	c, _, err = OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Append(entry("applu", "nosq-delay", 200)); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	re, corrupt, err := OpenResultCache(path, "rev-a")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	if corrupt != 1 || re.Len() != 2 {
		t.Fatalf("reopen = %d entries, %d corrupt; want 2 entries, 1 corrupt (the fragment)", re.Len(), corrupt)
	}
}
