// Package cache implements set-associative caches with LRU replacement, used
// for the L1 instruction cache, L1 data cache and unified L2 of the simulated
// machine, and for its data TLB: a cache whose lines are pages, so that a
// hit is a translation the TLB holds. Translation itself is identity (the
// emulator uses flat addresses); the TLB models only translation hits and
// misses.
//
// The caches model hit/miss behaviour only; the timing model translates
// misses into latency using its memory-hierarchy configuration and counts
// the accesses it cares about itself. A store allocates and updates LRU
// exactly as a load does (write-allocate); writebacks are neither counted
// nor timed.
package cache

import "fmt"

// Config describes one cache.
type Config struct {
	// Name identifies the cache in validation errors.
	Name string
	// SizeBytes is the total capacity.
	SizeBytes int
	// LineBytes is the block size.
	LineBytes int
	// Assoc is the set associativity.
	Assoc int
}

// Validate checks the configuration for consistency.
func (c Config) Validate() error {
	if c.SizeBytes <= 0 || c.LineBytes <= 0 || c.Assoc <= 0 {
		return fmt.Errorf("cache %q: non-positive geometry %+v", c.Name, c)
	}
	if c.SizeBytes%(c.LineBytes*c.Assoc) != 0 {
		return fmt.Errorf("cache %q: size %d not divisible by line*assoc", c.Name, c.SizeBytes)
	}
	if c.LineBytes&(c.LineBytes-1) != 0 {
		return fmt.Errorf("cache %q: line size %d not a power of two", c.Name, c.LineBytes)
	}
	sets := c.SizeBytes / (c.LineBytes * c.Assoc)
	if sets&(sets-1) != 0 {
		return fmt.Errorf("cache %q: set count %d not a power of two", c.Name, sets)
	}
	return nil
}

type line struct {
	// tag is the line's tag plus one; 0 marks an invalid way.
	tag uint64
	// lastUse is the access counter value of the most recent touch (LRU).
	lastUse uint64
}

// Cache is a set-associative cache with true-LRU replacement.
type Cache struct {
	// lines holds every way of every set in one pointer-free array: set i is
	// lines[i*assoc : (i+1)*assoc].
	lines    []line
	assoc    int
	lineBits uint
	setBits  uint
	setMask  uint64
	counter  uint64
	// Line buffer: the block and the lines index of the most recent access,
	// letting the extremely common repeat access to the same line (stack
	// traffic, a TLB's page) skip the set scan. The remembered line was just
	// touched, so it is MRU and cannot be evicted before a different line is
	// accessed.
	lastBlk uint64
	lastIdx int
}

// New creates a cache from the configuration; it panics on an invalid
// configuration (configurations are static machine descriptions).
func New(cfg Config) *Cache {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	numSets := cfg.SizeBytes / (cfg.LineBytes * cfg.Assoc)
	return &Cache{
		lines:    make([]line, numSets*cfg.Assoc),
		assoc:    cfg.Assoc,
		lineBits: log2(uint64(cfg.LineBytes)),
		setBits:  log2(uint64(numSets)),
		setMask:  uint64(numSets - 1),
		lastIdx:  -1, // line buffer empty
	}
}

func log2(v uint64) uint {
	var n uint
	for v > 1 {
		v >>= 1
		n++
	}
	return n
}

// Access performs a lookup for addr, a load's or a store's alike. It returns
// true on a hit. On a miss the line is allocated, evicting the LRU way.
func (c *Cache) Access(addr uint64) bool {
	c.counter++
	blk := addr >> c.lineBits
	if blk == c.lastBlk && c.lastIdx >= 0 {
		// Line-buffer hit: exactly the state update of the scan's hit case.
		c.lines[c.lastIdx].lastUse = c.counter
		return true
	}
	base, tag := int(blk&c.setMask)*c.assoc, blk>>c.setBits+1
	set := c.lines[base : base+c.assoc]
	for i := range set {
		if set[i].tag == tag {
			set[i].lastUse = c.counter
			c.lastBlk, c.lastIdx = blk, base+i
			return true
		}
	}
	// Choose victim: first invalid way, else LRU.
	victim := 0
	for i := range set {
		if set[i].tag == 0 {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = line{tag: tag, lastUse: c.counter}
	c.lastBlk, c.lastIdx = blk, base+victim
	return false
}
