// Package bpred implements the front-end branch prediction hardware of the
// simulated machine: a hybrid gshare/bimodal direction predictor with a
// chooser, a set-associative branch target buffer (BTB), and a return address
// stack (RAS).
//
// The configuration in Section 4.1 of the paper is a 12k-entry hybrid
// gShare/bimodal predictor, a 2k-entry 4-way set-associative target buffer
// and a 32-entry RAS; those are the defaults in DefaultConfig.
package bpred

import (
	"fmt"

	"repro/internal/isa"
)

// Config describes the branch prediction hardware.
type Config struct {
	// BimodalEntries is the number of 2-bit counters in the bimodal table.
	BimodalEntries int
	// GshareEntries is the number of 2-bit counters in the gshare table.
	GshareEntries int
	// ChooserEntries is the number of 2-bit chooser counters.
	ChooserEntries int
	// HistoryBits is the global history length used by gshare.
	HistoryBits int
	// BTBEntries is the total number of BTB entries.
	BTBEntries int
	// BTBAssoc is the BTB associativity.
	BTBAssoc int
	// RASEntries is the return address stack depth.
	RASEntries int
}

// DefaultConfig returns the paper's front-end configuration.
func DefaultConfig() Config {
	return Config{
		BimodalEntries: 4096,
		GshareEntries:  4096,
		ChooserEntries: 4096,
		HistoryBits:    12,
		BTBEntries:     2048,
		BTBAssoc:       4,
		RASEntries:     32,
	}
}

// Scale returns a copy of the configuration with the direction predictor and
// BTB scaled by the given factor (used for the 256-entry-window machine,
// whose branch predictor is quadrupled).
func (c Config) Scale(factor int) Config {
	if factor < 1 {
		factor = 1
	}
	c.BimodalEntries *= factor
	c.GshareEntries *= factor
	c.ChooserEntries *= factor
	c.BTBEntries *= factor
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	for _, v := range []struct {
		name string
		n    int
	}{
		{"BimodalEntries", c.BimodalEntries},
		{"GshareEntries", c.GshareEntries},
		{"ChooserEntries", c.ChooserEntries},
		{"BTBEntries", c.BTBEntries},
		{"BTBAssoc", c.BTBAssoc},
		{"RASEntries", c.RASEntries},
	} {
		if v.n <= 0 {
			return fmt.Errorf("bpred: %s must be positive, got %d", v.name, v.n)
		}
	}
	if c.HistoryBits <= 0 || c.HistoryBits > 30 {
		return fmt.Errorf("bpred: HistoryBits %d out of range", c.HistoryBits)
	}
	for _, n := range []int{c.BimodalEntries, c.GshareEntries, c.ChooserEntries} {
		if n&(n-1) != 0 {
			return fmt.Errorf("bpred: table size %d not a power of two", n)
		}
	}
	return nil
}

type btbEntry struct {
	valid   bool
	tag     uint64
	target  uint64
	lastUse uint64
}

// Predictor is the complete front-end prediction unit.
type Predictor struct {
	cfg Config

	bimodal []uint8
	gshare  []uint8
	chooser []uint8
	history uint64

	btb     [][]btbEntry
	btbSets int
	btbTick uint64

	ras    []uint64
	rasTop int
}

// New creates a predictor; it panics on an invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	sets := cfg.BTBEntries / cfg.BTBAssoc
	if sets < 1 {
		sets = 1
	}
	btb := make([][]btbEntry, sets)
	backing := make([]btbEntry, sets*cfg.BTBAssoc)
	for i := range btb {
		btb[i] = backing[i*cfg.BTBAssoc : (i+1)*cfg.BTBAssoc]
	}
	p := &Predictor{
		cfg:     cfg,
		bimodal: make([]uint8, cfg.BimodalEntries),
		gshare:  make([]uint8, cfg.GshareEntries),
		chooser: make([]uint8, cfg.ChooserEntries),
		btb:     btb,
		btbSets: sets,
		ras:     make([]uint64, cfg.RASEntries),
	}
	// Weakly-taken initial counters, chooser weakly prefers gshare.
	for i := range p.bimodal {
		p.bimodal[i] = 2
	}
	for i := range p.gshare {
		p.gshare[i] = 2
	}
	for i := range p.chooser {
		p.chooser[i] = 2
	}
	return p
}

func pcIndex(pc uint64, size int) int {
	return int((pc >> 2) & uint64(size-1))
}

func (p *Predictor) gshareIndex(pc uint64) int {
	h := p.history & ((1 << uint(p.cfg.HistoryBits)) - 1)
	return int(((pc >> 2) ^ h) & uint64(p.cfg.GshareEntries-1))
}

// Prediction is the front-end's guess for one control-flow instruction.
type Prediction struct {
	// Taken is the predicted direction (always true for unconditional ops).
	Taken bool
	// Target is the predicted target PC when taken (0 if the BTB missed and
	// no target is available).
	Target uint64
	// FromRAS reports that the target came from the return address stack.
	FromRAS bool
	// gshareIdx is the gshare table index used at predict time; the update at
	// resolve time must train the same entry even though the speculative
	// global history has moved on.
	gshareIdx int
}

// Predict produces a prediction for the given branch instruction and updates
// speculative front-end state (global history and RAS) exactly as a real
// front-end would at predict time.
func (p *Predictor) Predict(in *isa.Inst) Prediction {
	var pred Prediction
	switch in.Op {
	case isa.OpBranch:
		pred.gshareIdx = p.gshareIndex(in.PC)
		taken := p.predictDirection(in.PC)
		pred.Taken = taken
		if taken {
			pred.Target = p.lookupBTB(in.PC)
		}
		// Speculatively update history with the predicted direction.
		p.pushHistory(taken)
	case isa.OpJump:
		pred.Taken = true
		pred.Target = p.lookupBTB(in.PC)
	case isa.OpCall:
		pred.Taken = true
		pred.Target = p.lookupBTB(in.PC)
		p.pushRAS(in.NextPC())
		// Calls contribute 2 bits of path history (Section 3.3).
		p.pushHistory((in.PC>>2)&1 == 1)
		p.pushHistory((in.PC>>3)&1 == 1)
	case isa.OpRet:
		pred.Taken = true
		pred.Target = p.popRAS()
		pred.FromRAS = true
	}
	return pred
}

// Resolve informs the predictor of a branch's actual outcome. It updates the
// direction tables, the BTB, and — on a direction misprediction — repairs the
// speculative global history.
func (p *Predictor) Resolve(in *isa.Inst, taken bool, target uint64, predicted Prediction) {
	switch in.Op {
	case isa.OpBranch:
		p.updateDirection(in.PC, predicted.gshareIdx, taken)
		if taken {
			p.updateBTB(in.PC, target)
		}
		if predicted.Taken != taken {
			// Repair history: replace the speculatively-pushed bit.
			p.history = (p.history >> 1 << 1) | boolBit(taken)
		}
	case isa.OpJump, isa.OpCall:
		p.updateBTB(in.PC, target)
	}
}

func boolBit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func (p *Predictor) predictDirection(pc uint64) bool {
	bi := p.bimodal[pcIndex(pc, p.cfg.BimodalEntries)]
	gs := p.gshare[p.gshareIndex(pc)]
	ch := p.chooser[pcIndex(pc, p.cfg.ChooserEntries)]
	if ch >= 2 {
		return gs >= 2
	}
	return bi >= 2
}

func (p *Predictor) updateDirection(pc uint64, gsIdx int, taken bool) {
	biIdx := pcIndex(pc, p.cfg.BimodalEntries)
	chIdx := pcIndex(pc, p.cfg.ChooserEntries)
	biCorrect := (p.bimodal[biIdx] >= 2) == taken
	gsCorrect := (p.gshare[gsIdx] >= 2) == taken
	p.bimodal[biIdx] = bump(p.bimodal[biIdx], taken)
	p.gshare[gsIdx] = bump(p.gshare[gsIdx], taken)
	if gsCorrect != biCorrect {
		p.chooser[chIdx] = bump(p.chooser[chIdx], gsCorrect)
	}
}

func bump(ctr uint8, up bool) uint8 {
	if up {
		if ctr < 3 {
			return ctr + 1
		}
		return ctr
	}
	if ctr > 0 {
		return ctr - 1
	}
	return ctr
}

func (p *Predictor) pushHistory(taken bool) {
	p.history = (p.history << 1) | boolBit(taken)
}

func (p *Predictor) lookupBTB(pc uint64) uint64 {
	p.btbTick++
	setIdx := int((pc >> 2) & uint64(p.btbSets-1))
	tag := pc >> 2 / uint64(p.btbSets)
	set := p.btb[setIdx]
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = p.btbTick
			return set[i].target
		}
	}
	return 0
}

func (p *Predictor) updateBTB(pc, target uint64) {
	p.btbTick++
	setIdx := int((pc >> 2) & uint64(p.btbSets-1))
	tag := pc >> 2 / uint64(p.btbSets)
	set := p.btb[setIdx]
	victim := 0
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].target = target
			set[i].lastUse = p.btbTick
			return
		}
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	set[victim] = btbEntry{valid: true, tag: tag, target: target, lastUse: p.btbTick}
}

func (p *Predictor) pushRAS(returnPC uint64) {
	p.ras[p.rasTop] = returnPC
	p.rasTop = (p.rasTop + 1) % len(p.ras)
}

func (p *Predictor) popRAS() uint64 {
	p.rasTop = (p.rasTop - 1 + len(p.ras)) % len(p.ras)
	return p.ras[p.rasTop]
}
