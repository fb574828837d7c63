package simserver

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/obs"
)

// CodeRevision returns the identifier baked into every result-cache record:
// the VCS revision the binary was built from, or "dev" when none is recorded
// (go test, go run from a dirty tree). Measurements are only as trustworthy
// as the simulator that produced them, so a cache populated by one revision
// never serves a binary built from another — those entries simply miss and
// the pairs re-simulate. The detection itself lives in internal/obs so the
// CLI binaries share it for -version output.
func CodeRevision() string { return obs.CodeRevision() }

// cacheRecord is one JSONL line of the result-cache file: the entry's
// content-address, the code revision that produced it, and the sweep
// engine's checkpoint entry itself.
type cacheRecord struct {
	Key     string                      `json:"key"`
	CodeRev string                      `json:"code_rev"`
	Entry   experiments.CheckpointEntry `json:"entry"`
}

// ResultCache is the server's content-addressed result store, shared by every
// job as their experiments.ResultStore. An entry is keyed by the hash of
// everything that determines its measurements — experiment scope, iterations,
// max-insts, benchmark, configuration key, and the code revision — so
// repeated or overlapping grids from any client hit cache instead of
// re-simulating, and a stale binary's results are never served.
//
// The cache is resident in memory and (when opened with a path) persisted as
// an internal/jsonl log, fsynced on close, so a restarted server warms up
// from disk. All methods are safe for concurrent use.
type ResultCache struct {
	rev string

	mu      sync.Mutex
	entries map[string]experiments.CheckpointEntry
	log     *jsonl.Log // nil for a memory-only (or closed) cache

	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenResultCache opens (or creates) a result cache persisted at path, keyed
// under the given code revision. An empty path makes a memory-only cache.
// corrupt counts undecodable lines skipped while warming up (e.g. a line
// truncated by a crash); their pairs will simply re-simulate.
func OpenResultCache(path, codeRev string) (c *ResultCache, corrupt int, err error) {
	c = &ResultCache{
		rev:     codeRev,
		entries: make(map[string]experiments.CheckpointEntry),
	}
	if path == "" {
		return c, 0, nil
	}
	corrupt, err = jsonl.Scan(path, func(line []byte) bool {
		var rec cacheRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" || rec.Entry.Benchmark == "" {
			return false
		}
		// Revision scoping happens here, once: records from other binaries
		// (or with a key that no longer matches their content) stay in the
		// file but never become resident, so Load serves the map as-is with
		// no per-job hashing.
		if rec.CodeRev == codeRev && rec.Key == c.key(rec.Entry) {
			c.entries[rec.Key] = rec.Entry
		}
		return true
	})
	if err != nil {
		return nil, corrupt, fmt.Errorf("simserver: reading result cache: %w", err)
	}
	if c.log, err = jsonl.Open(path, jsonl.Hooks{}); err != nil {
		return nil, corrupt, fmt.Errorf("simserver: opening result cache: %w", err)
	}
	return c, corrupt, nil
}

// key content-addresses an entry: the hash of its identity fields plus the
// code revision.
func (c *ResultCache) key(e experiments.CheckpointEntry) string {
	h := sha256.Sum256([]byte(c.rev + "\x00" + e.Key()))
	return hex.EncodeToString(h[:])
}

// Load implements experiments.ResultStore: it returns every cached entry.
// All resident entries belong to the cache's code revision (other
// revisions' records are filtered out at open time), and corrupt lines were
// already counted there, so Load always reports zero.
//
// The snapshot is O(cache size) per call — each job's sweep planning pays
// one copy of the resident entries. That is a deliberate trade-off to keep
// the ResultStore interface identical for the file-checkpoint case; if
// resident caches grow to the point where this shows up, the next step is a
// keyed Lookup variant the engine can drive with just its planned grid.
func (c *ResultCache) Load() ([]experiments.CheckpointEntry, int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]experiments.CheckpointEntry, 0, len(c.entries))
	for _, e := range c.entries {
		out = append(out, e)
	}
	return out, 0, nil
}

// Append implements experiments.ResultStore: it records one finished pair,
// durably when the cache is file-backed. Appending an entry that is already
// cached is a no-op, so two overlapping jobs racing on the same pair cannot
// duplicate records.
func (c *ResultCache) Append(e experiments.CheckpointEntry) error {
	k := c.key(e)
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return nil
	}
	c.entries[k] = e
	if c.log == nil {
		return nil
	}
	b, err := json.Marshal(cacheRecord{Key: k, CodeRev: c.rev, Entry: e})
	if err != nil {
		return err
	}
	return c.log.Append(b)
}

// Len returns the number of resident entries (current revision only).
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// RecordHits / RecordMisses accumulate the served-from-cache and simulated
// pair counters surfaced by /metricsz.
func (c *ResultCache) RecordHits(n uint64)   { c.hits.Add(n) }
func (c *ResultCache) RecordMisses(n uint64) { c.misses.Add(n) }

// Hits and Misses return the cumulative counters.
func (c *ResultCache) Hits() uint64   { return c.hits.Load() }
func (c *ResultCache) Misses() uint64 { return c.misses.Load() }

// HitRate returns hits / (hits + misses), or 0 before any pair was needed.
func (c *ResultCache) HitRate() float64 {
	h, m := c.hits.Load(), c.misses.Load()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Close fsyncs and closes the backing file.
func (c *ResultCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.log == nil {
		return nil
	}
	err := c.log.Close()
	c.log = nil
	return err
}
