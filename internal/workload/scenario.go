package workload

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"os"

	"repro/internal/program"
)

// Scenario is a declarative workload specification: a JSON- and flag-settable
// description of a synthetic program, compiled through the slot-kind
// generator (or through one of the dedicated stress patterns). Each Table 5
// benchmark is the scenario its profile compiles to. Custom scenarios probe
// NoSQ's bypassing and verification machinery outside the published
// profiles — adversarial aliasing, pathological store distances, bursty
// partial-word traffic — so every knob names a communication property rather
// than a program detail.
//
// A scenario's identity is its canonical content (see Canonical and Hash):
// two specs that decode to the same knobs are the same workload no matter how
// their JSON was ordered, and any knob change produces a different hash. The
// experiment layer folds the hash into its result keys, so cached
// measurements can never be served across differing scenarios.
type Scenario struct {
	// Name labels the scenario; it appears as the benchmark name in reports
	// and result keys. Letters, digits, and "._/-" only.
	Name string `json:"name"`
	// Pattern selects the program shape. Empty or PatternProfile compiles the
	// knobs below through the standard slot-kind generator; the stress
	// patterns (PatternAliasStorm, PatternLongDistance, PatternPhaseFlip,
	// PatternBurstPartial) emit dedicated adversarial kernels and reject the
	// profile-only knobs (Mix, StoreDistance, PartialShape).
	Pattern string `json:"pattern,omitempty"`
	// Iterations is the main-loop trip count (0 = DefaultIterations;
	// negative is rejected).
	Iterations int `json:"iterations,omitempty"`
	// Mix sets the per-iteration load-slot composition; its percentages must
	// sum to 100. Nil selects DefaultMix.
	Mix *SlotMix `json:"mix,omitempty"`
	// StoreDistance shapes how many unrelated stores separate a full-word
	// communicating store from its load: DistanceNear (adjacent),
	// DistanceMixed (uniform 0-3), DistanceFar (8-16), or
	// DistanceBeyondPredictor (70-78 — still inside a 128-instruction
	// window, but more than the bypassing predictor's 6-bit distance field
	// can express). Empty keeps the Table 5 benchmarks' behaviour: a
	// coin-flip extra store per slot.
	StoreDistance string `json:"store_distance,omitempty"`
	// PartialShape restricts partial-word slots to one communication shape:
	// ShapeMixed (default, rotate through all), ShapeUpperHalf (wide store,
	// shifted narrow load), ShapeSigned (wide store, sign-extended narrow
	// load), or ShapeNarrow (narrow store, narrower load).
	PartialShape string `json:"partial_shape,omitempty"`
	// ErraticPer10k is the target rate (per 10,000 loads) of erratic
	// communication events no predictor can capture.
	ErraticPer10k float64 `json:"erratic_per_10k,omitempty"`
	// FootprintKB is the data footprint of the non-communicating loads
	// (0 = 64 KB).
	FootprintKB int `json:"footprint_kb,omitempty"`
	// FPHeavy adds floating-point chains and FP memory formats.
	FPHeavy bool `json:"fp_heavy,omitempty"`
	// BranchEntropy is the fraction of data-dependent (hard to predict)
	// conditional branches, in [0,1].
	BranchEntropy float64 `json:"branch_entropy,omitempty"`
	// Seed overrides the generation seed (0 = derive it from the canonical
	// spec, so distinct scenarios get distinct instruction streams).
	Seed uint64 `json:"seed,omitempty"`
}

// SlotMix is a scenario's per-iteration load-slot composition, in percent of
// the loadSlotsPerIteration slots. The fields must sum to 100.
type SlotMix struct {
	// IndepPct is the share of loads with no in-window communication.
	IndepPct float64 `json:"indep_pct,omitempty"`
	// FullCommPct is the share of full-word store-load communication.
	FullCommPct float64 `json:"full_comm_pct,omitempty"`
	// PathDepPct is the share whose communication distance depends on the
	// control-flow path.
	PathDepPct float64 `json:"path_dep_pct,omitempty"`
	// PartialPct is the share of partial-word communication SMB can bypass.
	PartialPct float64 `json:"partial_pct,omitempty"`
	// PartialStorePct is the share of narrow-store/wide-load (multi-source)
	// communication SMB cannot bypass.
	PartialStorePct float64 `json:"partial_store_pct,omitempty"`
}

// sum returns the mix total (should be 100).
func (m SlotMix) sum() float64 {
	return m.IndepPct + m.FullCommPct + m.PathDepPct + m.PartialPct + m.PartialStorePct
}

// DefaultMix is the slot mix used when a scenario leaves Mix unset: a
// moderately communicating program (28% of loads communicate, a little of
// every kind).
func DefaultMix() SlotMix {
	return SlotMix{IndepPct: 72, FullCommPct: 16, PathDepPct: 4, PartialPct: 6, PartialStorePct: 2}
}

// MaxFootprintKB bounds a scenario's footprint at 1 GiB — far above any
// realistic cache study, far below integer-overflow territory.
const MaxFootprintKB = 1 << 20

// Pattern names.
const (
	// PatternProfile is the standard slot-kind generator (the default).
	PatternProfile = "profile"
	// PatternAliasStorm streams stores and partially-overlapping loads whose
	// addresses all collide in one SVW filter set (same index bits, sixteen
	// distinct tags, rotated every iteration), stressing TSSBF conflict
	// eviction and partial-word verification under aliasing.
	PatternAliasStorm = "alias-storm"
	// PatternLongDistance communicates at store distances of ~70-80
	// intervening stores: inside a 128-instruction window, but beyond what
	// the bypassing predictor's 6-bit distance field can represent.
	PatternLongDistance = "long-distance"
	// PatternPhaseFlip flips each load's communicating store between two
	// candidates every 32 iterations using address arithmetic only — no
	// branch distinguishes the phases, so path history cannot disambiguate
	// and the predictor mispredicts at every flip.
	PatternPhaseFlip = "phase-flip"
	// PatternBurstPartial alternates 16-iteration bursts of dense
	// partial-word communication (including the multi-source case) with
	// equally long quiet streaming phases.
	PatternBurstPartial = "burst-partial"
)

// Patterns lists every valid Pattern value, the profile pattern first.
func Patterns() []string {
	return []string{PatternProfile, PatternAliasStorm, PatternLongDistance, PatternPhaseFlip, PatternBurstPartial}
}

// StoreDistance values.
const (
	DistanceMixed           = "mixed"
	DistanceNear            = "near"
	DistanceFar             = "far"
	DistanceBeyondPredictor = "beyond-predictor"
)

// PartialShape values.
const (
	ShapeMixed     = "mixed"
	ShapeUpperHalf = "upper-half"
	ShapeSigned    = "signed"
	ShapeNarrow    = "narrow"
)

// Stress reports whether the pattern is one of the dedicated stress kernels
// (anything other than the profile pattern).
func (s Scenario) Stress() bool {
	return s.Pattern != "" && s.Pattern != PatternProfile
}

// Validate checks the scenario for consistency, returning an error that
// names the offending knob. Notably, iterations must not be negative (zero
// selects the default) and an explicit slot mix must sum to exactly 100 —
// neither is silently clamped.
func (s Scenario) Validate() error {
	if s.Name == "" {
		return fmt.Errorf("workload: scenario without a name")
	}
	for _, r := range s.Name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '/', r == '-':
		default:
			return fmt.Errorf("workload: scenario name %q: only letters, digits, and ._/- are allowed", s.Name)
		}
	}
	if s.Iterations < 0 {
		return fmt.Errorf("workload: scenario %s: iterations must be positive (or zero for the default %d), got %d",
			s.Name, DefaultIterations, s.Iterations)
	}
	valid := false
	for _, p := range append([]string{""}, Patterns()...) {
		if s.Pattern == p {
			valid = true
			break
		}
	}
	if !valid {
		return fmt.Errorf("workload: scenario %s: unknown pattern %q (known: %v)", s.Name, s.Pattern, Patterns())
	}
	if s.Stress() {
		// The stress kernels replace the slot-based communication kernel
		// entirely, so every knob that only the slot kernel reads is an error
		// here rather than a silent no-op. (FPHeavy and BranchEntropy still
		// apply: the work kernel and entropy branches surround every pattern.)
		if s.Mix != nil {
			return fmt.Errorf("workload: scenario %s: mix is only meaningful for the profile pattern, not %q", s.Name, s.Pattern)
		}
		if s.StoreDistance != "" {
			return fmt.Errorf("workload: scenario %s: store_distance is only meaningful for the profile pattern, not %q", s.Name, s.Pattern)
		}
		if s.PartialShape != "" {
			return fmt.Errorf("workload: scenario %s: partial_shape is only meaningful for the profile pattern, not %q", s.Name, s.Pattern)
		}
		if s.ErraticPer10k != 0 {
			return fmt.Errorf("workload: scenario %s: erratic_per_10k is only meaningful for the profile pattern, not %q", s.Name, s.Pattern)
		}
		if s.FootprintKB != 0 {
			return fmt.Errorf("workload: scenario %s: footprint_kb is only meaningful for the profile pattern, not %q", s.Name, s.Pattern)
		}
	}
	if s.Mix != nil {
		for _, f := range []struct {
			name string
			v    float64
		}{
			{"indep_pct", s.Mix.IndepPct},
			{"full_comm_pct", s.Mix.FullCommPct},
			{"path_dep_pct", s.Mix.PathDepPct},
			{"partial_pct", s.Mix.PartialPct},
			{"partial_store_pct", s.Mix.PartialStorePct},
		} {
			if f.v < 0 || f.v > 100 {
				return fmt.Errorf("workload: scenario %s: mix %s %v out of [0,100]", s.Name, f.name, f.v)
			}
		}
		if sum := s.Mix.sum(); math.Abs(sum-100) > 1e-6 {
			return fmt.Errorf("workload: scenario %s: slot-mix percentages sum to %v, must sum to exactly 100", s.Name, sum)
		}
	}
	switch s.StoreDistance {
	case "", DistanceMixed, DistanceNear, DistanceFar, DistanceBeyondPredictor:
	default:
		return fmt.Errorf("workload: scenario %s: unknown store_distance %q (known: %s, %s, %s, %s)",
			s.Name, s.StoreDistance, DistanceMixed, DistanceNear, DistanceFar, DistanceBeyondPredictor)
	}
	switch s.PartialShape {
	case "", ShapeMixed, ShapeUpperHalf, ShapeSigned, ShapeNarrow:
	default:
		return fmt.Errorf("workload: scenario %s: unknown partial_shape %q (known: %s, %s, %s, %s)",
			s.Name, s.PartialShape, ShapeMixed, ShapeUpperHalf, ShapeSigned, ShapeNarrow)
	}
	if s.ErraticPer10k < 0 || s.ErraticPer10k > 10000 {
		return fmt.Errorf("workload: scenario %s: erratic_per_10k %v out of [0,10000]", s.Name, s.ErraticPer10k)
	}
	if s.FootprintKB < 0 {
		return fmt.Errorf("workload: scenario %s: footprint_kb must be non-negative (0 = default), got %d", s.Name, s.FootprintKB)
	}
	// Scenarios arrive over the network (inline job specs): an absurd
	// footprint must be rejected here, before the generator rounds it to a
	// power of two and a hostile value overflows that loop into a hang.
	if s.FootprintKB > MaxFootprintKB {
		return fmt.Errorf("workload: scenario %s: footprint_kb %d exceeds the %d KB (1 GiB) limit", s.Name, s.FootprintKB, MaxFootprintKB)
	}
	if s.BranchEntropy < 0 || s.BranchEntropy > 1 {
		return fmt.Errorf("workload: scenario %s: branch_entropy %v out of [0,1]", s.Name, s.BranchEntropy)
	}
	return nil
}

// ParseScenario decodes a scenario spec from JSON and validates it. Unknown
// fields are tolerated (a spec written for a newer binary still runs), and
// because the identity hash is computed from the re-marshalled struct, field
// order and unknown fields in the document cannot change it.
func ParseScenario(data []byte) (Scenario, error) {
	var s Scenario
	if err := json.Unmarshal(data, &s); err != nil {
		return Scenario{}, fmt.Errorf("workload: decoding scenario spec: %w", err)
	}
	if err := s.Validate(); err != nil {
		return Scenario{}, err
	}
	return s, nil
}

// LoadScenarioFile reads and parses a scenario spec file.
func LoadScenarioFile(path string) (Scenario, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Scenario{}, fmt.Errorf("workload: reading scenario spec: %w", err)
	}
	s, err := ParseScenario(data)
	if err != nil {
		return Scenario{}, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Canonical returns the scenario's canonical encoding: the struct
// re-marshalled with Go's fixed field order and zero-valued knobs omitted.
// Specs that decode identically share one canonical form regardless of field
// order or unknown fields in their source documents.
func (s Scenario) Canonical() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Scenario contains only marshalable field types; this is unreachable
		// short of memory corruption.
		panic(fmt.Sprintf("workload: marshaling scenario: %v", err))
	}
	return b
}

// Hash content-addresses the scenario: the hex SHA-256 of its canonical
// encoding. Any knob change changes the hash; reordered or unknown JSON
// fields do not.
func (s Scenario) Hash() string {
	h := sha256.Sum256(s.Canonical())
	return hex.EncodeToString(h[:])
}

// seed derives the generation-time RNG seed: the explicit Seed when set,
// otherwise an FNV-1a fold of the canonical spec, so distinct scenarios get
// distinct (but reproducible) instruction streams.
func (s Scenario) seed() uint64 {
	if s.Seed != 0 {
		return s.Seed
	}
	return seedFor(s.Canonical())
}

// mixCounts apportions the loadSlotsPerIteration slots to the mix's
// percentages by largest remainder, so the counts sum exactly to the slot
// budget and the realised mix tracks the spec as closely as integer slots
// allow.
func mixCounts(mix SlotMix) []int {
	pcts := []float64{mix.FullCommPct, mix.PathDepPct, mix.PartialPct, mix.PartialStorePct, mix.IndepPct}
	counts := make([]int, len(pcts))
	type rem struct {
		idx  int
		frac float64
	}
	rems := make([]rem, len(pcts))
	total := 0
	for i, p := range pcts {
		exact := p * loadSlotsPerIteration / 100
		counts[i] = int(exact)
		rems[i] = rem{idx: i, frac: exact - float64(counts[i])}
		total += counts[i]
	}
	// Stable largest-remainder distribution of the leftover slots: ties go to
	// the earlier kind, keeping the apportionment deterministic.
	for total < loadSlotsPerIteration {
		best := -1
		for _, r := range rems {
			if best < 0 || r.frac > rems[best].frac+1e-12 {
				best = r.idx
			}
		}
		counts[best]++
		rems[best].frac = -1
		total++
	}
	return counts
}

// GenerateScenario compiles a scenario spec into a program. opts.Iterations
// (when positive) overrides the spec's own iteration count; both zero selects
// DefaultIterations. Generation is deterministic: the same spec and options
// always produce an identical program, wherever it is generated.
func GenerateScenario(s Scenario, opts Options) (*program.Program, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	seed := s.seed()
	g := &generator{
		rng:           rng{s: seed},
		progSeed:      seed,
		b:             program.NewBuilder(s.Name),
		distMin:       -1,
		distMax:       -1,
		shape:         -1,
		erraticPer10k: s.ErraticPer10k,
		footprintKB:   cmp.Or(s.FootprintKB, 64),
		fpHeavy:       s.FPHeavy,
		branchEntropy: s.BranchEntropy,
	}
	if s.Stress() {
		g.pattern = s.Pattern
	} else {
		mix := DefaultMix()
		if s.Mix != nil {
			mix = *s.Mix
		}
		g.counts = mixCounts(mix)
		switch s.StoreDistance {
		case DistanceNear:
			g.distMin, g.distMax = 0, 0
		case DistanceMixed:
			g.distMin, g.distMax = 0, 3
		case DistanceFar:
			g.distMin, g.distMax = 8, 16
		case DistanceBeyondPredictor:
			g.distMin, g.distMax = 70, 78
		}
		switch s.PartialShape {
		case ShapeUpperHalf:
			g.shape = 0
		case ShapeSigned:
			g.shape = 1
		case ShapeNarrow:
			g.shape = 3
		}
	}
	g.build(cmp.Or(opts.Iterations, s.Iterations, DefaultIterations))
	return g.b.Build()
}

// StressScenarios returns the built-in adversarial scenario suite: one
// scenario per stress pattern plus a declarative profile-pattern scenario
// exercising the beyond-predictor store-distance knob. This is the suite the
// scenario experiment runs by default and the nightly CI sweep executes
// through the distributed fleet.
func StressScenarios() []Scenario {
	return []Scenario{
		{Name: "stress/alias-storm", Pattern: PatternAliasStorm, Iterations: 300},
		{Name: "stress/long-distance", Pattern: PatternLongDistance, Iterations: 200},
		{Name: "stress/phase-flip", Pattern: PatternPhaseFlip, Iterations: 384},
		{Name: "stress/burst-partial", Pattern: PatternBurstPartial, Iterations: 320},
		{Name: "stress/svw-overflow", Iterations: 150,
			Mix:           &SlotMix{IndepPct: 50, FullCommPct: 50},
			StoreDistance: DistanceBeyondPredictor},
	}
}

// StressScenarioByName returns the built-in stress scenario with the given
// name.
func StressScenarioByName(name string) (Scenario, bool) {
	for _, s := range StressScenarios() {
		if s.Name == name {
			return s, true
		}
	}
	return Scenario{}, false
}

// StressScenarioNames returns the built-in suite's names, in suite order.
func StressScenarioNames() []string {
	scns := StressScenarios()
	out := make([]string, len(scns))
	for i, s := range scns {
		out[i] = s.Name
	}
	return out
}
