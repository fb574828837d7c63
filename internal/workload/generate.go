package workload

import (
	"fmt"
	"math"

	"repro/internal/isa"
	"repro/internal/program"
)

// Options controls workload generation.
type Options struct {
	// Iterations is the number of main-loop iterations (each contributing a
	// few hundred dynamic instructions). Zero selects the default; negative
	// values are rejected by Validate rather than silently clamped.
	Iterations int
}

// Validate rejects option values the generator would previously have
// clamped: a negative iteration count is an error (zero still selects the
// default).
func (o Options) Validate() error {
	if o.Iterations < 0 {
		return fmt.Errorf("workload: iterations must be positive (or zero for the default %d), got %d",
			DefaultIterations, o.Iterations)
	}
	return nil
}

// DefaultIterations is the default number of main-loop iterations, sized so a
// benchmark runs a few hundred thousand dynamic instructions.
const DefaultIterations = 400

// loadSlotsPerIteration is the number of load "slots" each iteration of the
// generated program executes; the slot counts realise the workload's
// communication percentages.
const loadSlotsPerIteration = 32

// slotKind enumerates the kinds of load slots the generator emits.
type slotKind int

const (
	// slotIndep is a load with no in-window communication (streams through a
	// footprint array).
	slotIndep slotKind = iota
	// slotCommFull is a full-word store immediately followed by a dependent
	// full-word load (the classic bypassable pattern).
	slotCommFull
	// slotCommPartial is partial-word communication that SMB can bypass
	// (wide store, narrow load, possibly shifted or sign-extended).
	slotCommPartial
	// slotCommPartialStore is the narrow-store/wide-load multi-source case
	// SMB cannot bypass (handled by delay).
	slotCommPartialStore
	// slotCommPathDep is communication whose dynamic store distance depends
	// on the control-flow path.
	slotCommPathDep
	// slotCommHard is communication that erratically disappears (the store
	// occasionally goes elsewhere), defeating any predictor.
	slotCommHard
)

// rng is a small deterministic xorshift generator used only at generation
// time (program construction), never at simulation time.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s ^= r.s << 13
	r.s ^= r.s >> 7
	r.s ^= r.s << 17
	return r.s
}

func (r *rng) intn(n int) int {
	if n <= 0 {
		return 0
	}
	return int(r.next() % uint64(n))
}

// Registers used by the generated programs.
var (
	regCounter  = isa.IntReg(1) // main loop counter
	regCommBase = isa.IntReg(2) // communication region base
	regFootBase = isa.IntReg(3) // footprint array base
	regFootIdx  = isa.IntReg(4) // footprint index
	regAcc      = isa.IntReg(5) // integer accumulator
	regVal      = isa.IntReg(16)
	regOut      = isa.IntReg(17) // output array base (stores never reloaded)
	regOne      = isa.IntReg(18)
	regRng      = isa.IntReg(20) // in-program xorshift state
	regFAcc     = isa.FPReg(1)
	regFVal     = isa.FPReg(2)
	// regSinks receive communicating-load results; using several independent
	// sinks keeps most store-load pairs off a single serialised chain, like
	// the mostly-parallel communication in real programs.
	regSinks = []isa.Reg{isa.IntReg(19), isa.IntReg(21), isa.IntReg(23), isa.IntReg(24)}
)

// Generate builds the synthetic program for the named benchmark: the
// scenario its Table 5 profile compiles to.
func Generate(name string, opts Options) (*program.Program, error) {
	prof, err := ProfileByName(name)
	if err != nil {
		return nil, err
	}
	return GenerateScenario(prof.scenario(), opts)
}

// MustGenerate is Generate but panics on error.
func MustGenerate(name string, opts Options) *program.Program {
	p, err := Generate(name, opts)
	if err != nil {
		panic(err)
	}
	return p
}

// generator emits one program. GenerateScenario sets every knob from the
// scenario; the emitters read only these fields.
type generator struct {
	rng rng
	b   *program.Builder
	// progSeed seeds the generated program's in-program xorshift state.
	progSeed uint64

	// pattern is the stress kernel to emit ("" = the slot kernel).
	pattern string
	// counts are the per-iteration slot counts in slotKind emission order:
	// full, path-dependent, partial, partial-store, independent.
	counts []int
	// distMin/distMax bound the unrelated stores emitted between a full-word
	// communicating store and its load (-1 = a coin-flip extra store).
	distMin, distMax int
	// shape fixes the partial-word slot shape (-1 = rotate through all).
	shape int
	// erraticPer10k, footprintKB, fpHeavy and branchEntropy are the
	// Scenario knobs of the same names (footprintKB is 64 when unset).
	erraticPer10k float64
	footprintKB   int
	fpHeavy       bool
	branchEntropy float64

	// fill rotates filler-store offsets within the write-only output region.
	fill  int
	label int
	// temp register rotation (r6..r15).
	temp int
	// sink register rotation.
	sink int
	// commSlotsEmitted counts communicating slots emitted so far; the first
	// couple form a serial chain (store data depends on the previous load)
	// so that communication latency stays on the critical path, as it partly
	// is in real programs.
	commSlotsEmitted int
	// coldIndepEvery selects which independent slots stream through the cold
	// footprint (the rest hit a small hot region).
	coldIndepEvery int
}

func (g *generator) newLabel(prefix string) string {
	g.label++
	return fmt.Sprintf("%s_%d", prefix, g.label)
}

func (g *generator) nextTemp() isa.Reg {
	r := isa.IntReg(6 + g.temp%10)
	g.temp++
	return r
}

func (g *generator) nextSink() isa.Reg {
	r := regSinks[g.sink%len(regSinks)]
	g.sink++
	return r
}

// coldEvery returns N such that every Nth independent slot streams through
// the cold footprint array (the others hit a small hot region), giving the
// benchmark a cache-miss rate that grows with its footprint.
func (g *generator) coldEvery() int {
	switch {
	case g.footprintKB <= 64:
		return 1 // the whole footprint fits in the L1, so every slot may stream
	case g.footprintKB <= 256:
		return 10
	case g.footprintKB <= 1024:
		return 6
	default:
		return 3
	}
}

// footprintBytes rounds the footprint up to a power of two.
func (g *generator) footprintBytes() int64 {
	bytes := g.footprintKB * 1024
	p := 1
	for p < bytes {
		p <<= 1
	}
	return int64(p)
}

// profileCounts apportions the loadSlotsPerIteration slots to a benchmark
// profile's communication rates, in slotKind emission order: full,
// path-dependent, partial, partial-store, independent.
func profileCounts(p Profile) []int {
	round := func(x float64) int { return int(math.Round(x)) }
	total := loadSlotsPerIteration
	comm := min(round(float64(total)*p.CommPct/100), total)
	partial := min(round(float64(total)*p.PartialPct/100), comm)
	// The narrow-store/wide-load slot is emitted only when the profile's
	// partial-store fraction amounts to at least one whole slot (floor, not
	// round): one such slot per iteration already produces a large
	// misprediction rate, so only benchmarks the paper singles out for
	// partial-store communication (g721.e) get one.
	partialStore := int(float64(partial) * p.PartialStoreFrac)
	fullComm := comm - partial
	pathDep := round(float64(fullComm) * p.PathDepFrac)
	return []int{fullComm - pathDep, pathDep, partial - partialStore, partialStore, total - comm}
}

// slotMix computes the per-iteration slot composition from the slot counts.
func (g *generator) slotMix() []slotKind {
	var slots []slotKind
	kinds := []slotKind{slotCommFull, slotCommPathDep, slotCommPartial, slotCommPartialStore, slotIndep}
	for i, k := range kinds {
		for n := 0; n < g.counts[i]; n++ {
			slots = append(slots, k)
		}
	}
	// Benchmarks with an appreciable erratic-communication rate get one hard
	// slot; below one misprediction per 10k loads the slot would add more
	// spurious communication than it adds mispredictions.
	if g.erraticPer10k >= 1 {
		slots = append(slots, slotCommHard)
	}
	// Deterministic shuffle so slot kinds interleave.
	for i := len(slots) - 1; i > 0; i-- {
		j := g.rng.intn(i + 1)
		slots[i], slots[j] = slots[j], slots[i]
	}
	return slots
}

// hardDivertThreshold computes the threshold (out of 1024) with which the
// hard slot's store is diverted away from the load, calibrated so the
// expected mis-prediction rate approximates erraticPer10k.
func (g *generator) hardDivertThreshold() int64 {
	// Each divert event causes several mis-predictions (the wrong bypass,
	// the re-learning, and knock-on premature reads of the previous
	// iteration's store), over loadSlotsPerIteration+1 loads; the divisor is
	// calibrated against the simulator.
	perLoad := g.erraticPer10k / 10000
	p := perLoad * float64(loadSlotsPerIteration+1) / 6
	k := int64(math.Round(p * 1024))
	if k < 0 {
		k = 0
	}
	if k > 512 {
		k = 512
	}
	return k
}

func (g *generator) build(iters int) {
	b := g.b
	// Initialisation.
	b.MovImm(regCounter, int64(iters))
	b.MovImm(regCommBase, int64(program.DataBase))
	b.MovImm(regFootBase, int64(program.HeapBase))
	b.MovImm(regOut, int64(program.HeapBase)+16*1024*1024)
	b.MovImm(regFootIdx, 0)
	b.MovImm(regAcc, 0)
	b.MovImm(regVal, 0x1234567)
	b.MovImm(regOne, 1)
	b.MovImm(regRng, int64(g.progSeed&0x7FFFFFFF)|1)
	if g.fpHeavy {
		b.InitData(program.DataBase+8*1024, 8, math.Float64bits(1.0009765625))
		b.LoadFP8(regFAcc, regCommBase, 8*1024)
		b.LoadFP8(regFVal, regCommBase, 8*1024)
	}

	g.coldIndepEvery = g.coldEvery()

	b.Label("main_loop")
	b.Call("comm_kernel")
	b.Call("work_kernel")
	g.emitEntropyBranches()
	b.AddImm(regCounter, regCounter, -1)
	b.Branch(isa.BrNEZ, regCounter, "main_loop")
	b.Halt()

	// Communication kernel: the load slots, or a stress kernel.
	b.Label("comm_kernel")
	if g.pattern != "" {
		g.emitStressKernel()
	} else {
		slots := g.slotMix()
		for i, k := range slots {
			g.emitSlot(i, k)
		}
		// Fold the sinks into the accumulator once per iteration so loaded
		// values feed later work without serialising every slot.
		for _, s := range regSinks {
			b.Add(regAcc, regAcc, s)
		}
	}
	b.Ret()

	// Work kernel: extra ALU / FP chains (ILP filler whose length loosely
	// tracks how compute-heavy the suite is).
	b.Label("work_kernel")
	g.emitWork()
	b.Ret()
}

// emitRngStep advances the in-program xorshift state.
func (g *generator) emitRngStep() {
	b := g.b
	t := g.nextTemp()
	b.ShiftL(t, regRng, 13)
	b.Xor(regRng, regRng, t, 0)
	b.ShiftR(t, regRng, 7)
	b.Xor(regRng, regRng, t, 0)
	b.ShiftL(t, regRng, 17)
	b.Xor(regRng, regRng, t, 0)
}

// emitEntropyBranches emits data-dependent branches whose outcomes come from
// the in-program RNG, realising the branch entropy.
func (g *generator) emitEntropyBranches() {
	b := g.b
	n := int(math.Round(g.branchEntropy * 6))
	for i := 0; i < n; i++ {
		g.emitRngStep()
		cond := g.nextTemp()
		b.And(cond, regRng, regOne)
		skip := g.newLabel("ent")
		b.Branch(isa.BrEQZ, cond, skip)
		b.AddImm(regAcc, regAcc, 3)
		b.Label(skip)
		b.AddImm(regAcc, regAcc, 1)
	}
}

// emitWork emits the independent compute portion of an iteration.
func (g *generator) emitWork() {
	b := g.b
	// A short dependent ALU chain plus, for FP benchmarks, an FP chain with
	// multi-cycle operations.
	t1, t2 := g.nextTemp(), g.nextTemp()
	b.Add(t1, regAcc, regVal)
	b.ShiftR(t2, t1, 3)
	b.Xor(regVal, regVal, t2, 0x5a)
	b.Mul(t1, t2, regOne)
	b.Add(regAcc, regAcc, t1)
	if g.fpHeavy {
		for i := 0; i < 4; i++ {
			b.FMul(regFAcc, regFAcc, regFVal)
			b.FAdd(regFAcc, regFAcc, regFVal)
		}
		// Spill the FP accumulator with a converting store (Alpha sts) and
		// re-load the FP constant from a different location, exercising the
		// FP memory formats without adding store-load communication beyond
		// what the slot mix specifies.
		b.StoreFP(regFAcc, regCommBase, 4096)
		b.LoadFP8(regFVal, regCommBase, 8*1024)
	}
}

// emitSlot emits one load slot. Each slot owns a 32-byte span of the
// communication region so slots do not interfere with each other.
func (g *generator) emitSlot(index int, kind slotKind) {
	off := int64(index) * 32
	switch kind {
	case slotIndep:
		g.emitIndepSlot(index)
	case slotCommFull:
		g.emitCommFull(off)
	case slotCommPartial:
		g.emitCommPartial(off)
	case slotCommPartialStore:
		g.emitCommPartialStore(off)
	case slotCommPathDep:
		g.emitCommPathDep(off)
	case slotCommHard:
		g.emitCommHard(off)
	}
}

func (g *generator) emitIndepSlot(index int) {
	b := g.b
	t := g.nextTemp()
	sink := g.nextSink()
	cold := g.coldIndepEvery > 0 && index%g.coldIndepEvery == 0
	if cold {
		// Streaming load from the cold footprint array: address = base+index.
		addr := g.nextTemp()
		b.Add(addr, regFootBase, regFootIdx)
		if g.fpHeavy {
			b.LoadFP8(regFVal, addr, 0)
			b.FAdd(regFAcc, regFAcc, regFVal)
		} else {
			b.Load(t, addr, 0, 8)
			b.Add(sink, sink, t)
		}
		// Advance and wrap the index (footprint is a power of two).
		stride := int64(64 + 8*g.rng.intn(3))
		b.AddImm(regFootIdx, regFootIdx, stride)
		mask := g.footprintBytes() - 1
		maskReg := g.nextTemp()
		b.MovImm(maskReg, mask)
		b.And(regFootIdx, regFootIdx, maskReg)
	} else {
		// Hot load: a fixed, frequently-touched location (L1 resident).
		hotOff := int64(2048 + (index%32)*64)
		if g.fpHeavy && index%3 == 0 {
			b.LoadFP8(regFVal, regFootBase, hotOff)
			b.FAdd(regFAcc, regFAcc, regFVal)
		} else {
			b.Load(t, regFootBase, hotOff, 8)
			b.Add(sink, sink, t)
		}
	}
	// Occasionally store to the write-only output region (committed stores
	// that no in-window load reads). The data comes from the cheap regVal
	// chain so these stores do not sit in the baseline's issue queue waiting
	// for long-latency producers.
	if index%4 == 1 {
		b.Store(regVal, regOut, int64(index)*8, 8)
	}
}

func (g *generator) emitCommFull(off int64) {
	b := g.b
	t := g.nextTemp()
	sink := g.nextSink()
	// The first couple of communicating slots per iteration form a serial
	// DEF-store-load-USE chain (store data depends on the previous load), so
	// communication latency remains partly on the critical path; the rest
	// communicate independently.
	chained := g.commSlotsEmitted < 2
	g.commSlotsEmitted++
	if chained {
		b.Add(regVal, regVal, regSinks[0])
	} else {
		b.AddImm(regVal, regVal, 13)
	}
	b.Store(regVal, regCommBase, off, 8)
	if g.distMax >= 0 {
		// The store-distance knob: a spec-chosen number of unrelated stores
		// (to the write-only output region) separate the pair, so the dynamic
		// store distance the predictor must learn is under the spec's control
		// — up to and beyond what its distance field can represent.
		n := g.distMin
		if g.distMax > g.distMin {
			n += g.rng.intn(g.distMax - g.distMin + 1)
		}
		for i := 0; i < n; i++ {
			b.Store(regOne, regOut, int64(g.fill%512)*8, 8)
			g.fill++
		}
	} else {
		// Some slots put an extra unrelated store between the pair so the
		// learned distance differs from slot to slot.
		if g.rng.intn(2) == 1 {
			b.Store(regOne, regCommBase, off+8, 8)
		}
	}
	for i := g.rng.intn(3); i > 0; i-- {
		b.AddImm(regAcc, regAcc, 1)
	}
	b.Load(t, regCommBase, off, 8)
	if chained {
		b.Add(regSinks[0], regSinks[0], t)
	} else {
		b.Add(sink, sink, t)
	}
}

func (g *generator) emitCommPartial(off int64) {
	b := g.b
	t := g.nextTemp()
	sink := g.nextSink()
	g.commSlotsEmitted++
	b.AddImm(regVal, regVal, 7)
	sel := g.rng.intn(4)
	if g.shape >= 0 {
		// The partial-shape knob pins every partial-word slot to one
		// communication shape instead of rotating through all four.
		sel = g.shape
	}
	switch sel {
	case 0:
		// Wide store, narrow load of the upper half (shifted).
		b.Store(regVal, regCommBase, off, 8)
		b.Load(t, regCommBase, off+4, 2)
	case 1:
		// Wide store, signed narrow load.
		b.Store(regVal, regCommBase, off, 8)
		b.LoadSigned(t, regCommBase, off, 4)
	case 2:
		// Narrow store, equally narrow load.
		b.Store(regVal, regCommBase, off, 4)
		b.Load(t, regCommBase, off, 4)
	default:
		// Narrow store, narrower load.
		b.Store(regVal, regCommBase, off, 4)
		b.Load(t, regCommBase, off+2, 2)
	}
	b.Add(sink, sink, t)
}

func (g *generator) emitCommPartialStore(off int64) {
	b := g.b
	t := g.nextTemp()
	sink := g.nextSink()
	g.commSlotsEmitted++
	// Two byte stores feeding a halfword load: the case SMB cannot bypass.
	b.Store(regVal, regCommBase, off, 1)
	b.Store(regOne, regCommBase, off+1, 1)
	b.Load(t, regCommBase, off, 2)
	b.Add(sink, sink, t)
}

func (g *generator) emitCommPathDep(off int64) {
	b := g.b
	t, cond := g.nextTemp(), g.nextTemp()
	sink := g.nextSink()
	g.commSlotsEmitted++
	g.emitRngStep()
	b.And(cond, regRng, regOne)
	long := g.newLabel("pd_long")
	join := g.newLabel("pd_join")
	b.Branch(isa.BrNEZ, cond, long)
	// Short path: the communicating store is the most recent store.
	b.Store(regVal, regCommBase, off, 8)
	b.Jump(join)
	b.Label(long)
	// Long path: an extra store intervenes, so the bypassing distance
	// differs from the short path.
	b.Store(regVal, regCommBase, off, 8)
	b.Store(regOne, regCommBase, off+8, 8)
	b.Label(join)
	b.Load(t, regCommBase, off, 8)
	b.Add(sink, sink, t)
}

func (g *generator) emitCommHard(off int64) {
	b := g.b
	t, sel, addr := g.nextTemp(), g.nextTemp(), g.nextTemp()
	sink := g.nextSink()
	g.commSlotsEmitted++
	k := g.hardDivertThreshold()
	g.emitRngStep()
	// sel = (rng & 1023) < k  -> divert the store away from the load.
	mask := g.nextTemp()
	b.MovImm(mask, 1023)
	b.And(sel, regRng, mask)
	b.CmpLT(t, sel, isa.RegZero, k)
	b.ShiftL(t, t, 11) // divert by 2KB, well away from every slot span
	b.Add(addr, regCommBase, t)
	b.Store(regVal, addr, off, 8)
	b.Load(t, regCommBase, off, 8)
	b.Add(sink, sink, t)
}
