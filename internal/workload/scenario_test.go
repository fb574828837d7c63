package workload

import (
	"encoding/json"
	"strings"
	"testing"

	"repro/internal/emu"
)

func validScenario() Scenario {
	return Scenario{
		Name:       "test/custom",
		Iterations: 20,
		Mix:        &SlotMix{IndepPct: 60, FullCommPct: 25, PathDepPct: 5, PartialPct: 7, PartialStorePct: 3},
	}
}

func TestScenarioValidate(t *testing.T) {
	if err := validScenario().Validate(); err != nil {
		t.Fatalf("valid scenario rejected: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(*Scenario)
		want   string
	}{
		{"empty name", func(s *Scenario) { s.Name = "" }, "without a name"},
		{"bad name chars", func(s *Scenario) { s.Name = "a b" }, "only letters"},
		{"negative iterations", func(s *Scenario) { s.Iterations = -1 }, "iterations must be positive"},
		{"unknown pattern", func(s *Scenario) { s.Pattern = "chaos" }, "unknown pattern"},
		{"mix sum low", func(s *Scenario) { s.Mix = &SlotMix{IndepPct: 50, FullCommPct: 40} }, "sum to exactly 100"},
		{"mix sum high", func(s *Scenario) { s.Mix.IndepPct = 61 }, "sum to exactly 100"},
		{"mix pct range", func(s *Scenario) { s.Mix = &SlotMix{IndepPct: 150, FullCommPct: -50} }, "out of [0,100]"},
		{"mix with stress pattern", func(s *Scenario) { s.Pattern = PatternAliasStorm }, "only meaningful for the profile pattern"},
		{"distance with stress pattern", func(s *Scenario) {
			s.Mix = nil
			s.Pattern = PatternPhaseFlip
			s.StoreDistance = DistanceFar
		}, "only meaningful for the profile pattern"},
		{"erratic with stress pattern", func(s *Scenario) {
			s.Mix = nil
			s.Pattern = PatternLongDistance
			s.ErraticPer10k = 5
		}, "only meaningful for the profile pattern"},
		{"footprint with stress pattern", func(s *Scenario) {
			s.Mix = nil
			s.Pattern = PatternBurstPartial
			s.FootprintKB = 256
		}, "only meaningful for the profile pattern"},
		{"unknown distance", func(s *Scenario) { s.StoreDistance = "teleport" }, "unknown store_distance"},
		{"unknown shape", func(s *Scenario) { s.PartialShape = "round" }, "unknown partial_shape"},
		{"erratic range", func(s *Scenario) { s.ErraticPer10k = 10001 }, "out of [0,10000]"},
		{"negative footprint", func(s *Scenario) { s.FootprintKB = -1 }, "footprint_kb"},
		{"absurd footprint", func(s *Scenario) { s.FootprintKB = MaxFootprintKB + 1 }, "exceeds"},
		{"entropy range", func(s *Scenario) { s.BranchEntropy = 1.5 }, "out of [0,1]"},
	}
	for _, tc := range cases {
		s := validScenario()
		tc.mutate(&s)
		err := s.Validate()
		if err == nil {
			t.Errorf("%s: accepted, want error", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.want)
		}
	}
}

func TestOptionsValidateRejectsNegativeIterations(t *testing.T) {
	if err := (Options{Iterations: -3}).Validate(); err == nil {
		t.Error("negative iterations accepted")
	}
	if err := (Options{}).Validate(); err != nil {
		t.Errorf("zero iterations (= default) rejected: %v", err)
	}
	if _, err := Generate("gzip", Options{Iterations: -1}); err == nil {
		t.Error("Generate with negative iterations accepted")
	}
	if _, err := GenerateScenario(validScenario(), Options{Iterations: -1}); err == nil {
		t.Error("GenerateScenario with negative iterations accepted")
	}
}

// TestScenarioDeterminism: two independent generations of the same spec —
// including one re-parsed from a field-reordered JSON document — must produce
// identical programs. Distributed execution depends on this: coordinator and
// workers each generate from the spec and their measurements must agree.
func TestScenarioDeterminism(t *testing.T) {
	spec := validScenario()
	spec.StoreDistance = DistanceFar
	spec.ErraticPer10k = 20

	a, err := GenerateScenario(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := GenerateScenario(spec, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reordered := `{
		"erratic_per_10k": 20,
		"store_distance": "far",
		"mix": {"partial_store_pct": 3, "partial_pct": 7, "path_dep_pct": 5, "full_comm_pct": 25, "indep_pct": 60},
		"iterations": 20,
		"name": "test/custom"
	}`
	parsed, err := ParseScenario([]byte(reordered))
	if err != nil {
		t.Fatal(err)
	}
	c, err := GenerateScenario(parsed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Len() != b.Len() || a.Len() != c.Len() {
		t.Fatalf("lengths differ: %d, %d, %d", a.Len(), b.Len(), c.Len())
	}
	for i := range a.Insts {
		if a.Insts[i] != b.Insts[i] {
			t.Fatalf("instruction %d differs between identical generations", i)
		}
		if a.Insts[i] != c.Insts[i] {
			t.Fatalf("instruction %d differs after JSON field reordering", i)
		}
	}
}

// TestScenarioJSONRoundTripAndHash pins the spec-file contract: unknown
// fields are tolerated, the hash is stable under field reordering and
// unknown fields, and any knob change produces a different hash.
func TestScenarioJSONRoundTripAndHash(t *testing.T) {
	spec := validScenario()
	data, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if back.Hash() != spec.Hash() {
		t.Error("round-tripped scenario hash differs")
	}

	withUnknown := `{"name":"test/custom","iterations":20,"gpu_required":true,
		"mix":{"indep_pct":60,"full_comm_pct":25,"path_dep_pct":5,"partial_pct":7,"partial_store_pct":3,"future_knob":1}}`
	parsed, err := ParseScenario([]byte(withUnknown))
	if err != nil {
		t.Fatalf("unknown fields rejected: %v", err)
	}
	if parsed.Hash() != spec.Hash() {
		t.Error("unknown fields changed the hash")
	}

	changed := spec
	changed.Iterations = 21
	if changed.Hash() == spec.Hash() {
		t.Error("differing iterations share a hash")
	}
	changed = spec
	changed.Mix = &SlotMix{IndepPct: 61, FullCommPct: 24, PathDepPct: 5, PartialPct: 7, PartialStorePct: 3}
	if changed.Hash() == spec.Hash() {
		t.Error("differing mixes share a hash")
	}
}

func TestScenarioParseErrors(t *testing.T) {
	if _, err := ParseScenario([]byte(`{`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ParseScenario([]byte(`{"name":"x","iterations":-5}`)); err == nil {
		t.Error("invalid spec accepted")
	}
	if _, err := LoadScenarioFile("/does/not/exist.json"); err == nil {
		t.Error("missing spec file accepted")
	}
}

// TestStressScenariosRun: every built-in stress scenario must generate a
// valid program that terminates, and the communication-bearing ones must
// actually communicate.
func TestStressScenariosRun(t *testing.T) {
	for _, s := range StressScenarios() {
		s := s
		t.Run(s.Name, func(t *testing.T) {
			if err := s.Validate(); err != nil {
				t.Fatal(err)
			}
			p, err := GenerateScenario(s, Options{Iterations: 40})
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("generated program invalid: %v", err)
			}
			e := emu.New(p)
			if _, err := e.Run(5_000_000); err != nil {
				t.Fatal(err)
			}
			if !e.Halted() {
				t.Fatal("did not halt")
			}
			loads, comm, partial, multi := runFunctional(t, p)
			if loads == 0 {
				t.Fatal("no loads")
			}
			switch s.Pattern {
			case PatternAliasStorm:
				if comm == 0 {
					t.Error("alias storm produced no in-window communication")
				}
				if partial == 0 {
					t.Error("alias storm produced no partial-word communication")
				}
			case PatternLongDistance:
				if comm == 0 {
					t.Error("long-distance pairs fell outside the 128-instruction window")
				}
			case PatternPhaseFlip:
				if comm == 0 {
					t.Error("phase flip produced no in-window communication")
				}
			case PatternBurstPartial:
				if partial == 0 || multi == 0 {
					t.Errorf("burst partial: partial=%d multi=%d, want both nonzero", partial, multi)
				}
			}
		})
	}
}

// TestStressScenarioNamesStable: the suite names are part of the scenario
// experiment's deterministic pair order (and of CI expectations) — additions
// are fine, renames are not.
func TestStressScenarioNamesStable(t *testing.T) {
	names := StressScenarioNames()
	want := []string{"stress/alias-storm", "stress/long-distance", "stress/phase-flip", "stress/burst-partial", "stress/svw-overflow"}
	if len(names) < len(want) {
		t.Fatalf("suite shrank: %v", names)
	}
	for i, w := range want {
		if names[i] != w {
			t.Errorf("StressScenarioNames()[%d] = %q, want %q", i, names[i], w)
		}
	}
	for _, n := range names {
		if _, ok := StressScenarioByName(n); !ok {
			t.Errorf("StressScenarioByName(%q) missing", n)
		}
	}
	if _, ok := StressScenarioByName("stress/none"); ok {
		t.Error("unknown stress scenario found")
	}
}

// TestScenarioMixRealized: the declarative mix must be realised by the
// generated program within integer-slot tolerance.
func TestScenarioMixRealized(t *testing.T) {
	s := Scenario{
		Name:       "test/mix",
		Iterations: 60,
		Mix:        &SlotMix{IndepPct: 50, FullCommPct: 30, PathDepPct: 5, PartialPct: 10, PartialStorePct: 5},
	}
	p, err := GenerateScenario(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	loads, comm, partial, multi := runFunctional(t, p)
	if loads == 0 {
		t.Fatal("no loads")
	}
	commPct := 100 * float64(comm) / float64(loads)
	partialPct := 100 * float64(partial) / float64(loads)
	if commPct < 35 || commPct > 65 {
		t.Errorf("communication %.1f%%, spec asks ~50%%", commPct)
	}
	if partialPct < 7 || partialPct > 23 {
		t.Errorf("partial-word %.1f%%, spec asks ~15%%", partialPct)
	}
	if multi == 0 {
		t.Error("partial_store_pct > 0 but no multi-source communication")
	}
}

// TestScenarioDistanceKnob: the beyond-predictor distance knob must push
// full-word communication distances past what a 6-bit distance field can
// express while staying inside the 128-instruction window.
func TestScenarioDistanceKnob(t *testing.T) {
	s := Scenario{
		Name:          "test/far",
		Iterations:    30,
		Mix:           &SlotMix{IndepPct: 50, FullCommPct: 50},
		StoreDistance: DistanceBeyondPredictor,
	}
	p, err := GenerateScenario(s, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.RecordTrace(p, 3_000_000)
	if err != nil {
		t.Fatal(err)
	}
	c := tr.Cursor(0)
	var beyond, within uint64
	for seq := uint64(1); seq <= tr.Len(); seq++ {
		d, _ := c.Get(seq)
		if dep := d.Dep(); c.Static(d).IsLoad() && dep.Exists && seq-dep.Seq <= 128 {
			if dist, ok := d.Distance(); ok && dist > 63 {
				beyond++
			} else {
				within++
			}
		}
	}
	if beyond == 0 {
		t.Errorf("no in-window communication beyond distance 63 (within=%d)", within)
	}
}

func TestMixCountsApportionment(t *testing.T) {
	counts := mixCounts(SlotMix{IndepPct: 50, FullCommPct: 30, PathDepPct: 5, PartialPct: 10, PartialStorePct: 5})
	total := 0
	for _, c := range counts {
		total += c
	}
	if total != loadSlotsPerIteration {
		t.Fatalf("counts %v sum to %d, want %d", counts, total, loadSlotsPerIteration)
	}
	// 100% of one kind gets the whole budget.
	counts = mixCounts(SlotMix{IndepPct: 100})
	if counts[4] != loadSlotsPerIteration {
		t.Errorf("pure-independent mix = %v", counts)
	}
}
