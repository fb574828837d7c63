// Package storesets implements the StoreSets memory-dependence predictor
// (Chrysos & Emer, ISCA 1998) in the modified form the paper uses for the
// baseline processor's load scheduling (Section 2.1).
//
// Two structures cooperate:
//
//   - The SSIT (Store Set ID Table) is accessed at decode with the load PC
//     and yields the PC of the store the load is predicted to depend on,
//     together with a confidence counter tracking the stability of the pair.
//   - The LFST (Last Fetched Store Table) is accessed at rename with that
//     store PC and yields the SSN (and, for SMB, the data input physical
//     register tag) of the most recent dynamic instance of that store.
//
// The baseline uses the prediction for scheduling only: a load predicted to
// depend on an in-flight store is held until that store has executed. The
// pipeline does not repair the LFST when it squashes instructions: an entry
// that names a squashed store stays until a later store overwrites it or a
// store with its SSN completes.
package storesets

import "fmt"

// Config sizes the predictor. The paper's baseline uses a 4k-entry SSIT.
type Config struct {
	// SSITEntries is the number of SSIT entries (power of two).
	SSITEntries int
	// LFSTEntries is the number of LFST entries (power of two).
	LFSTEntries int
	// ConfidenceBits is the width of the SSIT confidence counter.
	ConfidenceBits int
	// ConfidenceThreshold is the minimum counter value treated as confident.
	ConfidenceThreshold int
}

// DefaultConfig returns the paper's baseline StoreSets configuration.
func DefaultConfig() Config {
	return Config{SSITEntries: 4096, LFSTEntries: 1024, ConfidenceBits: 2, ConfidenceThreshold: 2}
}

// Validate checks the configuration.
func (c Config) Validate() error {
	if c.SSITEntries <= 0 || c.SSITEntries&(c.SSITEntries-1) != 0 {
		return fmt.Errorf("storesets: SSITEntries %d must be a positive power of two", c.SSITEntries)
	}
	if c.LFSTEntries <= 0 || c.LFSTEntries&(c.LFSTEntries-1) != 0 {
		return fmt.Errorf("storesets: LFSTEntries %d must be a positive power of two", c.LFSTEntries)
	}
	if c.ConfidenceBits <= 0 || c.ConfidenceBits > 8 {
		return fmt.Errorf("storesets: ConfidenceBits %d out of range", c.ConfidenceBits)
	}
	if c.ConfidenceThreshold < 0 || c.ConfidenceThreshold >= 1<<uint(c.ConfidenceBits) {
		return fmt.Errorf("storesets: ConfidenceThreshold %d out of range", c.ConfidenceThreshold)
	}
	return nil
}

type ssitEntry struct {
	valid   bool
	tag     uint64
	storePC uint64
	conf    uint8
}

type lfstEntry struct {
	valid bool
	// ssn is the SSN of the most recent renamed dynamic instance of the store.
	ssn uint64
	// seq is that instance's dynamic sequence number.
	seq uint64
}

// Prediction is the scheduling hint for one dynamic load.
type Prediction struct {
	// DependsOnStore reports that the SSIT held a confident entry for the
	// load and the LFST held a live instance of the predicted store PC.
	DependsOnStore bool
	// StorePC is the predicted communicating store's PC.
	StorePC uint64
	// StoreSSN is the SSN of the most recent dynamic instance of StorePC.
	StoreSSN uint64
	// StoreSeq is the dynamic sequence number of that instance.
	StoreSeq uint64
}

// Predictor is the StoreSets predictor.
type Predictor struct {
	cfg     Config
	ssit    []ssitEntry
	lfst    []lfstEntry
	confMax uint8
}

// New creates a predictor; it panics on an invalid configuration.
func New(cfg Config) *Predictor {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	return &Predictor{
		cfg:     cfg,
		ssit:    make([]ssitEntry, cfg.SSITEntries),
		lfst:    make([]lfstEntry, cfg.LFSTEntries),
		confMax: uint8(1<<uint(cfg.ConfidenceBits)) - 1,
	}
}

func (p *Predictor) ssitIndex(pc uint64) int { return int((pc >> 2) & uint64(p.cfg.SSITEntries-1)) }
func (p *Predictor) lfstIndex(pc uint64) int { return int((pc >> 2) & uint64(p.cfg.LFSTEntries-1)) }

// StoreRenamed records that a dynamic instance of the store at storePC was
// renamed with the given SSN and dynamic sequence number.
func (p *Predictor) StoreRenamed(storePC uint64, ssn uint64, seq uint64) {
	e := &p.lfst[p.lfstIndex(storePC)]
	e.valid = true
	e.ssn = ssn
	e.seq = seq
}

// StoreCompleted invalidates the LFST entry for storePC if it still refers to
// the given dynamic instance; the original proposal clears entries when the
// store issues so later loads stop synchronising on it.
func (p *Predictor) StoreCompleted(storePC uint64, ssn uint64) {
	e := &p.lfst[p.lfstIndex(storePC)]
	if e.valid && e.ssn == ssn {
		e.valid = false
	}
}

// PredictLoad performs the decode/rename-time lookup for a load.
func (p *Predictor) PredictLoad(loadPC uint64) Prediction {
	e := p.ssit[p.ssitIndex(loadPC)]
	if !e.valid || e.tag != loadPC || e.conf < uint8(p.cfg.ConfidenceThreshold) {
		return Prediction{}
	}
	l := p.lfst[p.lfstIndex(e.storePC)]
	if !l.valid {
		return Prediction{StorePC: e.storePC}
	}
	return Prediction{DependsOnStore: true, StorePC: e.storePC, StoreSSN: l.ssn, StoreSeq: l.seq}
}

// TrainViolation records that the load at loadPC was squashed because it
// executed before the conflicting store at storePC: the pair is entered into
// the SSIT with full confidence.
func (p *Predictor) TrainViolation(loadPC, storePC uint64) {
	e := &p.ssit[p.ssitIndex(loadPC)]
	if e.valid && e.tag == loadPC && e.storePC == storePC {
		if e.conf < p.confMax {
			e.conf++
		}
		return
	}
	*e = ssitEntry{valid: true, tag: loadPC, storePC: storePC, conf: p.confMax}
}

// TrainNoDependence weakens the SSIT entry for a load that was predicted
// dependent but turned out not to forward from the predicted store, so that
// stale pairs eventually stop constraining scheduling.
func (p *Predictor) TrainNoDependence(loadPC uint64) {
	e := &p.ssit[p.ssitIndex(loadPC)]
	if e.valid && e.tag == loadPC && e.conf > 0 {
		e.conf--
	}
}
