package simserver

import (
	"bytes"
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
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
	keys := []string{entry("gzip", "nosq-delay", 0).Key(), entry("applu", "nosq-delay", 0).Key(),
		entry("mesa.o", "nosq-delay", 0).Key()}
	found, _, err := re.Lookup(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 2 || found[keys[0]].Run.Cycles != 100 || found[keys[1]].Run.Cycles != 200 {
		t.Fatalf("Lookup = %+v, want gzip and applu", found)
	}
}

// TestResultCacheScopedByCodeRevision: entries persisted by one binary
// revision are never served to another — stale simulator output must re-run,
// not resurface.
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
	keys := []string{entry("gzip", "nosq-delay", 0).Key()}
	found, _, err := b.Lookup(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 0 {
		t.Fatalf("rev-b Lookup served %d rev-a entries", len(found))
	}
	// The new revision recomputes and stores its own copy.
	if err := b.Append(entry("gzip", "nosq-delay", 101)); err != nil {
		t.Fatal(err)
	}
	found, _, err = b.Lookup(keys)
	if err != nil {
		t.Fatal(err)
	}
	if len(found) != 1 || found[keys[0]].Run.Cycles != 101 {
		t.Fatalf("rev-b Lookup = %+v, want its own entry", found)
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

// TestResultCacheRecordBytes pins the cache file's record: the entry's
// content address, the code revision, then the entry, exactly as earlier
// builds wrote it, so their files keep serving and open-time compaction
// re-encodes a record to the bytes it read.
func TestResultCacheRecordBytes(t *testing.T) {
	const want = `{"key":"2d2677eb4999fbbe202c987d458f0411a58d5c8f56d43af45bf697152469387b","code_rev":"rev-a",` +
		`"entry":{"experiment":"sweep","iterations":25,"benchmark":"gzip","config":"nosq-delay",` +
		`"run":{"Benchmark":"gzip","Config":"nosq-delay","Cycles":100,"Committed":1000,"CommittedLoads":0,` +
		`"CommittedStores":0,"InWindowComm":0,"InWindowPartial":0,"BypassedLoads":0,"DelayedLoads":0,` +
		`"BypassMispredictions":0,"Flushes":0,"DCacheCoreReads":0,"DCacheBackendReads":0,"Reexecutions":0,` +
		`"SQForwards":0,"BranchMispredicts":0,"StallROB":0,"StallIQ":0,"StallPhys":0,"StallLQ":0,"StallSQ":0,` +
		`"StallFrontend":0,"IdleIssueCycles":0}}}` + "\n"
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
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != want {
		t.Fatalf("cache file =\n%s\nwant\n%s", got, want)
	}
}

// writeLines writes a cache file line by line.
func writeLines(t *testing.T, path string, lines ...string) {
	t.Helper()
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
}

// cacheLine is the file line a cache under rev writes for e.
func cacheLine(t *testing.T, rev string, e experiments.CheckpointEntry) string {
	t.Helper()
	c, _, err := OpenResultCache("", rev)
	if err != nil {
		t.Fatal(err)
	}
	b, err := c.record(e)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestResultCacheCompactsStaleLines: when stale lines (another revision, a
// key that does not match its content, or undecodable) outnumber the
// resident entries, open rewrites the file down to the resident records,
// byte for byte as Append wrote them, and a reopen serves the same entry.
func TestResultCacheCompactsStaleLines(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	current := cacheLine(t, "rev-b", entry("gzip", "nosq-delay", 100))
	wrongKey := strings.Replace(cacheLine(t, "rev-b", entry("applu", "nosq-delay", 200)), `"key":"`, `"key":"0`, 1)
	writeLines(t, path,
		cacheLine(t, "rev-a", entry("gzip", "nosq-delay", 99)),
		wrongKey,
		`{"key":"abc","entry":{"bench`,
		current)

	c, corrupt, err := OpenResultCache(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 || c.Len() != 1 {
		t.Fatalf("open = %d entries, %d corrupt; want 1, 1", c.Len(), corrupt)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != current+"\n" {
		t.Fatalf("compacted file = %q, want only the current line %q", got, current)
	}

	re, corrupt, err := OpenResultCache(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	defer re.Close()
	key := entry("gzip", "nosq-delay", 0).Key()
	found, _, err := re.Lookup([]string{key})
	if err != nil || corrupt != 0 || len(found) != 1 || found[key].Run.Cycles != 100 {
		t.Fatalf("reopen: Lookup = %+v, %d corrupt, err %v", found, corrupt, err)
	}
}

// TestResultCacheKeepsFileWhenStaleAreFew: with no more stale lines than
// resident entries, open leaves the file byte-identical.
func TestResultCacheKeepsFileWhenStaleAreFew(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	writeLines(t, path,
		cacheLine(t, "rev-b", entry("gzip", "nosq-delay", 100)),
		cacheLine(t, "rev-a", entry("gzip", "nosq-delay", 99)),
		cacheLine(t, "rev-b", entry("applu", "nosq-delay", 200)),
		cacheLine(t, "rev-b", entry("mesa.o", "nosq-delay", 300)))
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c, corrupt, err := OpenResultCache(path, "rev-b")
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 || c.Len() != 3 {
		t.Fatalf("open = %d entries, %d corrupt; want 3, 0", c.Len(), corrupt)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("open rewrote a file with 1 stale line beside 3 resident entries:\n%s\nbecame\n%s", before, after)
	}
}

// cachedSweep returns the options of a 10-pair sweep (gzip and applu under
// the five configuration kinds) whose every pair is already in a
// memory-only cache, beside `unrelated` entries of other pairs.
func cachedSweep(tb testing.TB, unrelated int) experiments.Options {
	tb.Helper()
	c, _, err := OpenResultCache("", "rev-a")
	if err != nil {
		tb.Fatal(err)
	}
	opts := experiments.Options{Iterations: 25, Benchmarks: []string{"gzip", "applu"}, Parallelism: 1, Store: c}
	if _, err := experiments.Sweep(context.Background(), opts); err != nil {
		tb.Fatal(err)
	}
	if c.Len() != 10 {
		tb.Fatalf("the sweep cached %d pairs, want 10", c.Len())
	}
	for i := 0; i < unrelated; i++ {
		if err := c.Append(entry(fmt.Sprintf("unrelated-%d", i), "nosq-delay", uint64(i))); err != nil {
			tb.Fatal(err)
		}
	}
	return opts
}

// runCached runs a fully cached sweep, failing unless every pair resumed.
func runCached(tb testing.TB, opts experiments.Options) {
	rep, err := experiments.Sweep(context.Background(), opts)
	if err != nil {
		tb.Fatal(err)
	}
	if rep.Summary.Resumed != 10 || rep.Summary.Executed != 0 {
		tb.Fatalf("summary = %+v, want 10 resumed", rep.Summary)
	}
}

// TestCachedSweepCostIgnoresUnrelatedEntries: a fully cached sweep costs
// the same whatever else the cache holds — it looks up its own pairs and
// touches no other entry. Under the race detector a run's allocation count
// varies by a few dozen from run to run (sync.Pool drops items at random
// there), so the two sides take turns, one run at a time, and each keeps its
// fewest: a count near the floor both share.
func TestCachedSweepCostIgnoresUnrelatedEntries(t *testing.T) {
	alone, beside := cachedSweep(t, 0), cachedSweep(t, 10000)
	a, b := math.Inf(1), math.Inf(1)
	for range 40 {
		a = min(a, testing.AllocsPerRun(1, func() { runCached(t, alone) }))
		b = min(b, testing.AllocsPerRun(1, func() { runCached(t, beside) }))
	}
	if b > a+8 {
		t.Fatalf("a cached 10-pair sweep allocates %.0f times beside 10 000 unrelated entries, %.0f beside none", b, a)
	}
}

// BenchmarkCachedSweep times a fully cached 10-pair sweep beside growing
// numbers of unrelated resident entries; its cost should not grow with them.
func BenchmarkCachedSweep(b *testing.B) {
	for _, n := range []int{10, 1000, 10000, 100000} {
		b.Run(fmt.Sprintf("unrelated=%d", n), func(b *testing.B) {
			opts := cachedSweep(b, n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				runCached(b, opts)
			}
		})
	}
}
