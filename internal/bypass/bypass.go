// Package bypass implements NoSQ's store-load bypassing predictor
// (Section 3.3 of the paper).
//
// The predictor maps each dynamic load to the dynamic in-flight store (if
// any) from which it will forward, representing the dependence as a dynamic
// store distance: the number of stores renamed between the communicating
// store and the load. At rename the predicted distance is converted to a
// concrete store by simple subtraction from the global rename-time SSN.
//
// The organisation is a hybrid of two set-associative tables accessed in
// parallel:
//
//   - a path-insensitive table indexed by load PC, and
//   - a path-sensitive table indexed by an XOR hash of the load PC and a
//     configurable number of path-history bits (branch directions, 1 bit per
//     branch, and call-site bits, 2 bits per call).
//
// If both tables hit, the path-sensitive prediction wins. Entries are
// allocated only when the commit stage detects a bypassing mis-prediction:
// (i) a non-bypassing load should have bypassed, (ii) a bypassing load should
// have accessed the cache instead, or (iii) a bypassing load bypassed from
// the wrong dynamic store. Each entry carries a distance, the learned shift
// amount and store size for partial-word bypassing (Section 3.5), and a
// confidence counter driving the delay mechanism: predictions whose
// confidence is below threshold cause the load to wait for the predicted
// store to commit and then read the cache, instead of bypassing.
package bypass

import "fmt"

// Config describes a bypassing predictor instance. The paper's default is
// two 1K-entry 4-way tables (2K entries, 10KB total) with 8 history bits, a
// 6-bit distance, 3-bit shift, 2-bit store size and 7-bit confidence counter.
type Config struct {
	// Entries is the total number of entries across both tables. Zero means
	// unbounded (the idealised predictor of Figure 5).
	Entries int
	// Assoc is the set associativity of each table.
	Assoc int
	// HistoryBits is the number of path-history bits XORed into the
	// path-sensitive table's index.
	HistoryBits int
	// DistanceBits is the width of the distance field.
	DistanceBits int
	// ConfidenceBits is the width of the confidence counter.
	ConfidenceBits int
	// ConfidenceThreshold is the minimum confidence treated as "bypass";
	// below it the delay mechanism engages.
	ConfidenceThreshold int
	// ConfidenceDecay is how much a mis-prediction (with a path-sensitive
	// entry available) lowers the confidence counter; correct predictions
	// raise it by one. Values above one bias the delay mechanism toward
	// loads that mis-predict persistently.
	ConfidenceDecay int
	// Hybrid selects the two-table organisation; when false only the
	// path-insensitive table is used (for ablation).
	Hybrid bool
}

// DefaultConfig returns the paper's 2K-entry hybrid configuration.
func DefaultConfig() Config {
	return Config{
		Entries:             2048,
		Assoc:               4,
		HistoryBits:         8,
		DistanceBits:        6,
		ConfidenceBits:      7,
		ConfidenceThreshold: 64,
		ConfidenceDecay:     8,
		Hybrid:              true,
	}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.Entries < 0 {
		return fmt.Errorf("bypass: negative entries %d", c.Entries)
	}
	if c.Entries > 0 {
		if c.Assoc <= 0 || c.Entries%c.Assoc != 0 {
			return fmt.Errorf("bypass: entries %d not divisible by assoc %d", c.Entries, c.Assoc)
		}
		perTable := c.Entries
		if c.Hybrid {
			perTable /= 2
		}
		sets := perTable / c.Assoc
		if sets <= 0 || sets&(sets-1) != 0 {
			return fmt.Errorf("bypass: per-table set count %d must be a positive power of two", sets)
		}
	}
	if c.HistoryBits < 0 || c.HistoryBits > 30 {
		return fmt.Errorf("bypass: history bits %d out of range", c.HistoryBits)
	}
	if c.DistanceBits <= 0 || c.DistanceBits > 16 {
		return fmt.Errorf("bypass: distance bits %d out of range", c.DistanceBits)
	}
	if c.ConfidenceBits <= 0 || c.ConfidenceBits > 16 {
		return fmt.Errorf("bypass: confidence bits %d out of range", c.ConfidenceBits)
	}
	if c.ConfidenceThreshold < 0 || c.ConfidenceThreshold >= 1<<uint(c.ConfidenceBits) {
		return fmt.Errorf("bypass: confidence threshold %d out of range", c.ConfidenceThreshold)
	}
	if c.ConfidenceDecay < 0 {
		return fmt.Errorf("bypass: negative confidence decay %d", c.ConfidenceDecay)
	}
	return nil
}

// StorageBytes estimates the predictor's storage cost: 5 bytes per entry
// (22-bit tag, 6-bit distance, 3-bit shift, 2-bit size, 7-bit confidence),
// matching the paper's 10KB figure for 2K entries.
func (c Config) StorageBytes() int { return c.Entries * 5 }

// MaxDistance is the largest representable bypassing distance.
func (c Config) MaxDistance() uint64 { return (1 << uint(c.DistanceBits)) - 1 }

// Prediction is the decode-time output of the predictor for one load.
type Prediction struct {
	// Hit reports that at least one table held an entry for the load.
	Hit bool
	// NoBypass reports that the matched entry learned that this load does
	// not communicate with an in-flight store (or communicates at an
	// unrepresentable distance).
	NoBypass bool
	// Distance is the predicted dynamic store distance (valid when Hit and
	// !NoBypass).
	Distance uint64
	// Shift is the predicted partial-word shift amount in bytes.
	Shift uint8
	// StoreSize is the predicted communicating store's width in bytes.
	StoreSize uint8
	// Confident reports that the entry's confidence is at or above threshold;
	// when false the delay mechanism applies (Section 3.3).
	Confident bool
	// FromPathTable reports that the winning entry came from the
	// path-sensitive table (needed for the confidence update rule).
	FromPathTable bool
}

// Outcome is the commit-time ground truth used to reward or train the
// predictor.
type Outcome struct {
	// Bypassable reports that the load did communicate with an in-flight
	// older store reachable by SMB (single source).
	Bypassable bool
	// Distance is the actual dynamic store distance (valid when Bypassable,
	// or when the load communicated with an already-committed store —
	// in which case it is simply large).
	Distance uint64
	// Shift is the actual shift amount in bytes.
	Shift uint8
	// StoreSize is the actual communicating store's width in bytes.
	StoreSize uint8
}

type entry struct {
	valid     bool
	tag       uint64
	noBypass  bool
	distance  uint16
	shift     uint8
	storeSize uint8
	conf      uint16
	lastUse   uint64
}

type table struct {
	sets  [][]entry
	assoc int
	mask  uint64
	tick  uint64
	// unbounded holds entries keyed by full index when Entries == 0.
	unbounded map[uint64]*entry
}

func newTable(entries, assoc int) *table {
	if entries == 0 {
		return &table{unbounded: make(map[uint64]*entry)}
	}
	sets := entries / assoc
	t := &table{assoc: assoc, mask: uint64(sets - 1)}
	t.sets = make([][]entry, sets)
	backing := make([]entry, entries)
	for i := range t.sets {
		t.sets[i] = backing[i*assoc : (i+1)*assoc]
	}
	return t
}

// lookup finds the entry for key (a pre-hashed index/tag source).
func (t *table) lookup(key uint64) *entry {
	if t.unbounded != nil {
		return t.unbounded[key]
	}
	t.tick++
	si := key & t.mask
	tag := key >> 1 // partial tag: drop nothing meaningful, keep it simple and exact
	set := t.sets[si]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = t.tick
			return &set[i]
		}
	}
	return nil
}

// insert finds-or-allocates the entry for key, evicting LRU if needed.
func (t *table) insert(key uint64) *entry {
	if t.unbounded != nil {
		e := t.unbounded[key]
		if e == nil {
			e = &entry{valid: true}
			t.unbounded[key] = e
		}
		return e
	}
	if e := t.lookup(key); e != nil {
		return e
	}
	t.tick++
	si := key & t.mask
	tag := key >> 1
	set := t.sets[si]
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = entry{valid: true, tag: tag, lastUse: t.tick}
	return &set[victim]
}

// Predictor is the store-load bypassing predictor.
type Predictor struct {
	cfg       Config
	plain     *table // path-insensitive
	path      *table // path-sensitive
	confMax   uint16
	confInit  uint16
	histMask  uint64
	pathTable bool
}

// New creates a predictor; it panics on an invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	perTable := cfg.Entries
	usePath := cfg.Hybrid
	if usePath && perTable > 0 {
		perTable /= 2
	}
	p := &Predictor{
		cfg:       cfg,
		plain:     newTable(perTable, cfg.Assoc),
		confMax:   uint16(1<<uint(cfg.ConfidenceBits)) - 1,
		histMask:  (1 << uint(cfg.HistoryBits)) - 1,
		pathTable: usePath,
	}
	if usePath {
		p.path = newTable(perTable, cfg.Assoc)
	}
	// Confidence counters are initialised at an above-threshold value.
	p.confInit = uint16(cfg.ConfidenceThreshold)
	if p.confInit < p.confMax {
		p.confInit++
	}
	return p
}

func (p *Predictor) plainKey(pc uint64) uint64 { return pc >> 2 }

func (p *Predictor) pathKey(pc, history uint64) uint64 {
	return (pc >> 2) ^ ((history & p.histMask) << 7)
}

// Predict produces the decode-time prediction for the load at pc given the
// current path history.
func (p *Predictor) Predict(pc, history uint64) Prediction {
	var plainEnt, pathEnt *entry
	plainEnt = p.plain.lookup(p.plainKey(pc))
	if p.pathTable {
		pathEnt = p.path.lookup(p.pathKey(pc, history))
	}
	win := plainEnt
	fromPath := false
	if pathEnt != nil {
		win = pathEnt
		fromPath = true
	}
	if win == nil {
		return Prediction{}
	}
	return Prediction{
		Hit:           true,
		NoBypass:      win.noBypass,
		Distance:      uint64(win.distance),
		Shift:         win.shift,
		StoreSize:     win.storeSize,
		Confident:     win.conf >= uint16(p.cfg.ConfidenceThreshold),
		FromPathTable: fromPath,
	}
}

// Reward records that the load at pc committed without a bypassing
// mis-prediction; confidence counters of matching entries are incremented.
func (p *Predictor) Reward(pc, history uint64) {
	if e := p.plain.lookup(p.plainKey(pc)); e != nil && e.conf < p.confMax {
		e.conf++
	}
	if p.pathTable {
		if e := p.path.lookup(p.pathKey(pc, history)); e != nil && e.conf < p.confMax {
			e.conf++
		}
	}
}

// Train records a bypassing mis-prediction for the load at pc and updates the
// predictor with the actual outcome. pathEntryExisted reports whether a
// path-sensitive prediction was available at decode time (the condition under
// which the confidence counter is decremented rather than incremented).
func (p *Predictor) Train(pc, history uint64, actual Outcome, pathEntryExisted bool) {
	fill := func(e *entry, decay bool) {
		if actual.Bypassable && actual.Distance <= p.cfg.MaxDistance() {
			e.noBypass = false
			e.distance = uint16(actual.Distance)
			e.shift = actual.Shift
			e.storeSize = actual.StoreSize
		} else {
			e.noBypass = true
			e.distance = uint16(p.cfg.MaxDistance())
			e.shift = 0
			e.storeSize = actual.StoreSize
		}
		if e.conf == 0 {
			e.conf = p.confInit
		}
		if decay {
			dec := uint16(p.cfg.ConfidenceDecay)
			if dec == 0 {
				dec = 1
			}
			if e.conf > dec {
				e.conf -= dec
			} else {
				e.conf = 0
			}
		} else if e.conf < p.confMax {
			e.conf++
		}
	}
	// On a mis-prediction, entries are created/updated in both tables.
	fill(p.plain.insert(p.plainKey(pc)), p.pathTable && pathEntryExisted)
	if p.pathTable {
		fill(p.path.insert(p.pathKey(pc, history)), pathEntryExisted)
	}
}

// PathHistory is the rename-stage path history register feeding the
// path-sensitive table: conditional branches contribute their direction
// (1 bit) and calls contribute 2 bits of their site PC (Section 3.3).
type PathHistory struct {
	bits uint64
}

// HistoryFromValue reconstructs a PathHistory from a previously captured
// Value (used to repair the history register after a pipeline flush).
func HistoryFromValue(v uint64) PathHistory { return PathHistory{bits: v} }

// Value returns the current history value.
func (h PathHistory) Value() uint64 { return h.bits }

// PushBranch shifts in a conditional branch outcome.
func (h PathHistory) PushBranch(taken bool) PathHistory {
	b := uint64(0)
	if taken {
		b = 1
	}
	return PathHistory{bits: h.bits<<1 | b}
}

// PushCall shifts in two bits of a call-site PC.
func (h PathHistory) PushCall(pc uint64) PathHistory {
	return PathHistory{bits: h.bits<<2 | ((pc >> 2) & 3)}
}
