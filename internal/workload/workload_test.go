package workload

import (
	"math"
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
)

func TestAllProfilesValid(t *testing.T) {
	if len(profiles) != 47 {
		t.Fatalf("Table 5 has 47 benchmarks, profiles has %d", len(profiles))
	}
	for _, p := range profiles {
		if err := p.Validate(); err != nil {
			t.Errorf("%s: %v", p.Name, err)
		}
	}
}

func TestProfileNamesUnique(t *testing.T) {
	names := sortedCopy()
	for i := 1; i < len(names); i++ {
		if names[i] == names[i-1] {
			t.Errorf("duplicate benchmark name %q", names[i])
		}
	}
}

func TestSuiteCounts(t *testing.T) {
	counts := make(map[Suite]int)
	for _, p := range profiles {
		counts[p.Suite]++
	}
	for suite, want := range map[Suite]int{MediaBench: 18, SPECint: 16, SPECfp: 13} {
		if counts[suite] != want {
			t.Errorf("%s has %d profiles, want %d", suite, counts[suite], want)
		}
	}
}

func TestSuiteStrings(t *testing.T) {
	for _, s := range []Suite{MediaBench, SPECint, SPECfp} {
		if s.String() == "" {
			t.Error("suite name empty")
		}
	}
}

func TestProfileByName(t *testing.T) {
	p, err := ProfileByName("gzip")
	if err != nil || p.Name != "gzip" || p.Suite != SPECint {
		t.Errorf("ProfileByName(gzip) = %+v, %v", p, err)
	}
	if _, err := ProfileByName("no-such-benchmark"); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestSelectedNamesExist(t *testing.T) {
	for _, n := range SelectedNames() {
		if _, err := ProfileByName(n); err != nil {
			t.Errorf("selected benchmark %q not in profiles", n)
		}
	}
}

func TestSeedDeterministicAndDistinct(t *testing.T) {
	if seedFor("gzip") != seedFor("gzip") {
		t.Error("seed not deterministic")
	}
	if seedFor("gzip") == seedFor("gcc") {
		t.Error("different benchmarks share a seed")
	}
}

func TestGenerateUnknownBenchmark(t *testing.T) {
	if _, err := Generate("does-not-exist", Options{}); err == nil {
		t.Error("unknown benchmark accepted")
	}
}

func TestGeneratedProgramsValid(t *testing.T) {
	for _, name := range Names() {
		p, err := Generate(name, Options{Iterations: 5})
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if err := p.Validate(); err != nil {
			t.Errorf("%s: generated program invalid: %v", name, err)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a := MustGenerate("vortex", Options{Iterations: 3})
	b := MustGenerate("vortex", Options{Iterations: 3})
	if a.Len() != b.Len() {
		t.Fatalf("lengths differ: %d vs %d", a.Len(), b.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
	}
}

// runFunctional executes a generated program and gathers its functional
// communication statistics (independent of any timing model).
func runFunctional(t *testing.T, p *program.Program) (loads, comm, partial, multi uint64) {
	t.Helper()
	tr, err := emu.RecordTrace(p, 5_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor(0)
	for seq := uint64(1); seq <= tr.Len(); seq++ {
		d, _ := c.Get(seq)
		if c.Static(d).IsLoad() {
			loads++
			if dep := d.Dep(); dep.Exists && seq-dep.Seq <= 128 {
				comm++
				if dep.PartialWord {
					partial++
				}
				if dep.MultiSource {
					multi++
				}
			}
		}
	}
	return
}

func TestGeneratedProgramsTerminate(t *testing.T) {
	for _, name := range []string{"gzip", "mesa.o", "lucas", "mcf"} {
		p := MustGenerate(name, Options{Iterations: 10})
		e := emu.New(p)
		if _, err := e.Run(2_000_000); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		if !e.Halted() {
			t.Errorf("%s did not halt", name)
		}
	}
}

func TestCommunicationMatchesProfile(t *testing.T) {
	// The generated programs must realise the paper's communication rates to
	// within a few percentage points.
	for _, name := range []string{"adpcm.d", "gzip", "mesa.o", "mpeg2.d", "applu", "mcf", "g721.e", "vortex"} {
		prof, _ := ProfileByName(name)
		p := MustGenerate(name, Options{Iterations: 60})
		loads, comm, partial, _ := runFunctional(t, p)
		if loads == 0 {
			t.Fatalf("%s: no loads", name)
		}
		commPct := 100 * float64(comm) / float64(loads)
		partialPct := 100 * float64(partial) / float64(loads)
		if math.Abs(commPct-prof.CommPct) > 6 {
			t.Errorf("%s: communication %.1f%%, paper reports %.1f%%", name, commPct, prof.CommPct)
		}
		if math.Abs(partialPct-prof.PartialPct) > 5 {
			t.Errorf("%s: partial-word %.1f%%, paper reports %.1f%%", name, partialPct, prof.PartialPct)
		}
	}
}

func TestPartialStoreCaseGenerated(t *testing.T) {
	// g721.e's signature behaviour: multi-source (narrow-store/wide-load)
	// communication must be present.
	p := MustGenerate("g721.e", Options{Iterations: 40})
	_, _, _, multi := runFunctional(t, p)
	if multi == 0 {
		t.Error("g721.e should contain multi-source partial-store communication")
	}
	// And a benchmark with no partial-store fraction should have none.
	p = MustGenerate("applu", Options{Iterations: 40})
	_, _, _, multi = runFunctional(t, p)
	if multi != 0 {
		t.Errorf("applu should have no multi-source communication, got %d", multi)
	}
}

func TestGenerateFromCustomProfile(t *testing.T) {
	prof := Profile{
		Name: "custom", Suite: SPECint, CommPct: 25, PartialPct: 5,
		PathDepFrac: 0.2, HardPer10k: 10, PartialStoreFrac: 0.2,
		FootprintKB: 64, BranchEntropy: 0.3,
	}
	p, err := GenerateFromProfile(prof, Options{Iterations: 20})
	if err != nil {
		t.Fatalf("GenerateFromProfile: %v", err)
	}
	loads, comm, _, _ := runFunctional(t, p)
	if loads == 0 || comm == 0 {
		t.Errorf("custom profile produced loads=%d comm=%d", loads, comm)
	}
	bad := prof
	bad.FootprintKB = 0
	if _, err := GenerateFromProfile(bad, Options{}); err == nil {
		t.Error("invalid profile accepted")
	}
}

func TestIterationScaling(t *testing.T) {
	small := MustGenerate("gap", Options{Iterations: 5})
	smallE := emu.New(small)
	n1, _ := smallE.Run(10_000_000)
	big := MustGenerate("gap", Options{Iterations: 50})
	bigE := emu.New(big)
	n2, _ := bigE.Run(10_000_000)
	if n2 < n1*8 {
		t.Errorf("dynamic length should scale with iterations: %d vs %d", n1, n2)
	}
}
