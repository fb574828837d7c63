package tuner

import (
	"fmt"
	"math"

	"repro/internal/workload"
)

// Scenario mutation: one deterministic knob perturbation per call. Mutate is
// a pure function of (parent, seed) — it draws every random decision from a
// splitmix64 stream seeded by the caller — so the same seed applied to the
// same parent spec always produces the byte-identical child, which is what
// makes whole search runs replayable from one root seed.
//
// Operators stay inside workload.Scenario.Validate's envelope by
// construction: mix shifts conserve the 100% slot budget, stress patterns
// never receive profile-only knobs, and every enum draw comes from the
// workload package's own value lists. A mutated child therefore never fails
// validation, which keeps the search loop free of rejection sampling.

// rng is a splitmix64 stream: tiny, seedable, and stable across Go versions
// (math/rand's algorithms are not part of its compatibility promise).
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9E3779B97F4A7C15
	z := r.s
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// intn returns a uniform int in [0, n).
func (r *rng) intn(n int) int {
	return int(r.next() % uint64(n))
}

// pick returns a uniform element of xs.
func pick[T any](r *rng, xs []T) T {
	return xs[r.intn(len(xs))]
}

// pickOther returns a uniform element of xs different from cur (xs must
// contain at least one such element).
func pickOther[T comparable](r *rng, xs []T, cur T) T {
	for {
		if v := pick(r, xs); v != cur {
			return v
		}
	}
}

// clone deep-copies a scenario (the Mix pointer is the only shared state).
func clone(s workload.Scenario) workload.Scenario {
	out := s
	if s.Mix != nil {
		mix := *s.Mix
		out.Mix = &mix
	}
	return out
}

// mixFields gives named access to a SlotMix's five percentages.
func mixFields(m *workload.SlotMix) []struct {
	name string
	v    *float64
} {
	return []struct {
		name string
		v    *float64
	}{
		{"indep_pct", &m.IndepPct},
		{"full_comm_pct", &m.FullCommPct},
		{"path_dep_pct", &m.PathDepPct},
		{"partial_pct", &m.PartialPct},
		{"partial_store_pct", &m.PartialStorePct},
	}
}

// Knob-value menus the operators draw from. Values are coarse on purpose:
// the search explores regimes, not epsilon neighbourhoods, and coarse values
// keep committed specs legible.
var (
	erraticMenu    = []float64{0, 25, 100, 400, 1600, 5000, 10000}
	footprintMenu  = []int{0, 16, 256, 1024, 4096, 16384}
	entropyMenu    = []float64{0, 0.25, 0.5, 0.75, 1}
	iterationsMenu = []int{96, 160, 256, 384, 512}
	distanceMenu   = []string{"", workload.DistanceNear, workload.DistanceMixed, workload.DistanceFar, workload.DistanceBeyondPredictor}
	shapeMenu      = []string{"", workload.ShapeMixed, workload.ShapeUpperHalf, workload.ShapeSigned, workload.ShapeNarrow}
	mixStepMenu    = []float64{4, 8, 16, 24, 32}
)

// Mutate derives a child spec from parent by applying one randomly chosen
// operator, deterministically in (parent, seed). It returns the child (same
// Name as the parent — callers rename) and a human-readable description of
// the knob delta for provenance. The child always validates.
func Mutate(parent workload.Scenario, seed uint64) (workload.Scenario, string) {
	r := &rng{s: seed}
	s := clone(parent)

	// Operators applicable to every pattern.
	ops := []func(*rng, *workload.Scenario) string{opIterations, opBranchEntropy, opFPHeavy, opSwitchPattern}
	if !s.Stress() {
		// Profile-only knobs.
		ops = append(ops, opShiftMix, opDistance, opShape, opErratic, opFootprint)
	}
	desc := ops[r.intn(len(ops))](r, &s)
	return s, desc
}

// opShiftMix moves a coarse slab of slot-mix mass from one slot kind to
// another, conserving the 100% budget. It materializes the default mix first
// when the parent left Mix unset, so the delta is explicit in the child spec.
func opShiftMix(r *rng, s *workload.Scenario) string {
	if s.Mix == nil {
		mix := workload.DefaultMix()
		s.Mix = &mix
	}
	fields := mixFields(s.Mix)
	from := r.intn(len(fields))
	to := pickOther(r, []int{0, 1, 2, 3, 4}, from)
	step := pick(r, mixStepMenu)
	if *fields[from].v < step {
		step = *fields[from].v // drain the source instead of going negative
	}
	if step == 0 {
		// Source slot is empty: invert the move so the operator still
		// perturbs the mix.
		from, to = to, from
		step = pick(r, mixStepMenu)
		if *fields[from].v < step {
			step = *fields[from].v
		}
	}
	oldFrom, oldTo := *fields[from].v, *fields[to].v
	*fields[from].v = math.Round(*fields[from].v - step)
	*fields[to].v = math.Round(*fields[to].v + step)
	return fmt.Sprintf("mix: %s %g->%g, %s %g->%g",
		fields[from].name, oldFrom, *fields[from].v, fields[to].name, oldTo, *fields[to].v)
}

func opDistance(r *rng, s *workload.Scenario) string {
	old := s.StoreDistance
	s.StoreDistance = pickOther(r, distanceMenu, old)
	return fmt.Sprintf("store_distance: %q->%q", old, s.StoreDistance)
}

func opShape(r *rng, s *workload.Scenario) string {
	old := s.PartialShape
	s.PartialShape = pickOther(r, shapeMenu, old)
	return fmt.Sprintf("partial_shape: %q->%q", old, s.PartialShape)
}

func opErratic(r *rng, s *workload.Scenario) string {
	old := s.ErraticPer10k
	s.ErraticPer10k = pickOther(r, erraticMenu, old)
	return fmt.Sprintf("erratic_per_10k: %g->%g", old, s.ErraticPer10k)
}

func opFootprint(r *rng, s *workload.Scenario) string {
	old := s.FootprintKB
	s.FootprintKB = pickOther(r, footprintMenu, old)
	return fmt.Sprintf("footprint_kb: %d->%d", old, s.FootprintKB)
}

func opFPHeavy(r *rng, s *workload.Scenario) string {
	s.FPHeavy = !s.FPHeavy
	return fmt.Sprintf("fp_heavy: %v->%v", !s.FPHeavy, s.FPHeavy)
}

func opBranchEntropy(r *rng, s *workload.Scenario) string {
	old := s.BranchEntropy
	s.BranchEntropy = pickOther(r, entropyMenu, old)
	return fmt.Sprintf("branch_entropy: %g->%g", old, s.BranchEntropy)
}

func opIterations(r *rng, s *workload.Scenario) string {
	old := s.Iterations
	s.Iterations = pickOther(r, iterationsMenu, old)
	return fmt.Sprintf("iterations: %d->%d", old, s.Iterations)
}

// opSwitchPattern re-targets the scenario at a different program shape.
// Moving onto a stress kernel clears the profile-only knobs (they would fail
// validation); moving off one lands on the default profile generator with
// every profile knob at its default.
func opSwitchPattern(r *rng, s *workload.Scenario) string {
	old := s.Pattern
	s.Pattern = pickOther(r, workload.Patterns(), old)
	if s.Stress() {
		s.Mix = nil
		s.StoreDistance = ""
		s.PartialShape = ""
		s.ErraticPer10k = 0
		s.FootprintKB = 0
	}
	return fmt.Sprintf("pattern: %q->%q", old, s.Pattern)
}
