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
)

// cacheRecord is one JSONL line of the result-cache file: the entry's
// content-address, the code revision that produced it (obs.CodeRevision),
// and the sweep engine's checkpoint entry itself. Measurements are only as
// trustworthy as the simulator that produced them, so a cache populated by
// one revision never serves a binary built from another: those entries
// miss and the pairs re-simulate.
type cacheRecord struct {
	Key     string                      `json:"key"`
	CodeRev string                      `json:"code_rev"`
	Entry   experiments.CheckpointEntry `json:"entry"`
}

// ResultCache is the server's content-addressed result store, shared by every
// job as their experiments.ResultStore. An entry's address is the hash of
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

	mu sync.Mutex
	// entries holds the cache's own revision's entries by pair key
	// (CheckpointEntry.Key). The revision is fixed per cache, so the pair key
	// names an entry as uniquely as its content address; the address is
	// computed only for the file.
	entries map[string]experiments.CheckpointEntry
	log     *jsonl.Log // nil for a memory-only (or closed) cache

	hits   atomic.Uint64
	misses atomic.Uint64
}

// OpenResultCache opens (or creates) a result cache persisted at path, keyed
// under the given code revision. An empty path makes a memory-only cache.
// corrupt counts undecodable lines skipped while warming up (e.g. a line
// truncated by a crash); their pairs will simply re-simulate.
//
// Lines that cannot serve this revision — undecodable, from another
// revision, or whose key does not match their content — are stale. When
// stale lines outnumber the resident entries, the file is rewritten down to
// the resident records, encoded exactly as Append writes them, so a server
// that changes revision does not re-scan every earlier revision's results
// at each start.
func OpenResultCache(path, codeRev string) (c *ResultCache, corrupt int, err error) {
	c = &ResultCache{
		rev:     codeRev,
		entries: make(map[string]experiments.CheckpointEntry),
	}
	if path == "" {
		return c, 0, nil
	}
	var order []string // resident pair keys in file order, for a rewrite
	stale := 0
	corrupt, err = jsonl.Scan(path, func(line []byte) bool {
		var rec cacheRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" || rec.Entry.Benchmark == "" {
			return false
		}
		// Revision scoping happens here, once: records from other binaries
		// (or with a key that no longer matches their content) never become
		// resident, so a lookup never hashes.
		if rec.CodeRev != codeRev || rec.Key != c.address(rec.Entry) {
			stale++
			return true
		}
		k := rec.Entry.Key()
		if _, dup := c.entries[k]; !dup {
			order = append(order, k)
		}
		c.entries[k] = rec.Entry
		return true
	})
	if err != nil {
		return nil, corrupt, fmt.Errorf("simserver: reading result cache: %w", err)
	}
	if c.log, err = jsonl.Open(path, jsonl.Hooks{}); err != nil {
		return nil, corrupt, fmt.Errorf("simserver: opening result cache: %w", err)
	}
	if stale+corrupt > len(c.entries) {
		if err := c.compact(order); err != nil {
			c.log.Close()
			return nil, corrupt, fmt.Errorf("simserver: compacting result cache: %w", err)
		}
	}
	return c, corrupt, nil
}

// compact rewrites the cache file down to the resident entries, in the
// given pair-key order.
func (c *ResultCache) compact(order []string) error {
	lines := make([][]byte, len(order))
	for i, k := range order {
		b, err := c.record(c.entries[k])
		if err != nil {
			return err
		}
		lines[i] = b
	}
	return c.log.Rewrite(lines)
}

// address content-addresses an entry for the file: the hash of its identity
// fields plus the code revision.
func (c *ResultCache) address(e experiments.CheckpointEntry) string {
	h := sha256.Sum256([]byte(c.rev + "\x00" + e.Key()))
	return hex.EncodeToString(h[:])
}

// record encodes an entry as one line of the cache file.
func (c *ResultCache) record(e experiments.CheckpointEntry) ([]byte, error) {
	return json.Marshal(cacheRecord{Key: c.address(e), CodeRev: c.rev, Entry: e})
}

// Lookup implements experiments.ResultStore: it returns the cached entries
// among the given pair keys. Every resident entry belongs to the cache's
// code revision (other revisions' records are filtered out at open time),
// and corrupt lines were already counted there, so Lookup always reports
// zero. It costs one map probe per key, however large the cache grows.
func (c *ResultCache) Lookup(keys []string) (map[string]experiments.CheckpointEntry, int, error) {
	found := make(map[string]experiments.CheckpointEntry, len(keys))
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, k := range keys {
		if e, ok := c.entries[k]; ok {
			found[k] = e
		}
	}
	return found, 0, nil
}

// Append implements experiments.ResultStore: it records one finished pair,
// durably when the cache is file-backed. Appending an entry that is already
// cached is a no-op, so two overlapping jobs racing on the same pair cannot
// duplicate records.
func (c *ResultCache) Append(e experiments.CheckpointEntry) error {
	k := e.Key()
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, dup := c.entries[k]; dup {
		return nil
	}
	c.entries[k] = e
	if c.log == nil {
		return nil
	}
	b, err := c.record(e)
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
