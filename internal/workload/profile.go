// Package workload generates the synthetic benchmark suite used in place of
// the SPEC2000 and MediaBench binaries the paper runs.
//
// Because the original Alpha binaries, their inputs, and SimpleScalar's
// syscall emulation are not available (and are not the subject of the paper),
// each benchmark in Table 5 is replaced by a deterministic synthetic program
// whose store-load communication behaviour is tuned to match the profile the
// paper reports for it: the fraction of committed loads with in-window
// communication, the fraction with partial-word communication, the difficulty
// of predicting that communication (path-dependent and erratic patterns,
// narrow-store/wide-load cases), and coarse cache/branch behaviour. These are
// exactly the workload properties that drive the paper's results, so
// preserving them preserves the relative behaviour of the configurations in
// Table 5 and Figures 2-5, which is the goal of the reproduction.
//
// Beyond the fixed profiles, the package provides declarative workload
// scenarios (Scenario, GenerateScenario): JSON-settable knob sets and
// dedicated stress patterns that probe the bypassing and verification
// machinery outside the published profiles. See scenario.go and stress.go.
package workload

import (
	"fmt"
	"sort"
)

// Suite identifies the benchmark suite a profile belongs to.
type Suite int

// Suite constants.
const (
	// MediaBench is the MediaBench suite.
	MediaBench Suite = iota
	// SPECint is the SPEC CPU2000 integer suite.
	SPECint
	// SPECfp is the SPEC CPU2000 floating-point suite.
	SPECfp
	// Custom marks workloads outside Table 5 (declarative scenarios).
	Custom
)

// String implements fmt.Stringer.
func (s Suite) String() string {
	switch s {
	case MediaBench:
		return "MediaBench"
	case SPECint:
		return "SPECint"
	case SPECfp:
		return "SPECfp"
	case Custom:
		return "custom"
	default:
		return fmt.Sprintf("suite?%d", int(s))
	}
}

// Profile describes the workload characteristics of one benchmark.
type Profile struct {
	// Name is the benchmark name as it appears in Table 5.
	Name string
	// Suite is the benchmark suite.
	Suite Suite

	// CommPct is the percentage of committed loads with in-window (128
	// instruction) store-load communication (Table 5, "total").
	CommPct float64
	// PartialPct is the percentage with partial-word communication
	// (Table 5, "partial-word").
	PartialPct float64

	// PathDepFrac is the fraction of communicating loads whose communication
	// distance depends on the control-flow path (needing the path-sensitive
	// predictor table).
	PathDepFrac float64
	// HardPer10k is the target rate (per 10,000 loads) of erratic
	// communication events no predictor can capture, calibrated from the
	// paper's "no delay" misprediction column.
	HardPer10k float64
	// PartialStoreFrac is the fraction of partial-word communication that is
	// the narrow-store/wide-load (multi-source) case SMB cannot bypass.
	PartialStoreFrac float64

	// FootprintKB is the data footprint of the benchmark's non-communicating
	// loads; larger footprints produce more cache misses.
	FootprintKB int
	// FPHeavy marks floating-point dominated benchmarks (FP operation mix
	// and lds/sts-style converting memory operations).
	FPHeavy bool
	// BranchEntropy is the fraction of conditional branches that are
	// data-dependent (hard to predict).
	BranchEntropy float64
}

// profiles lists every benchmark of Table 5 with its communication profile.
// CommPct and PartialPct are taken directly from the paper; the remaining
// knobs are calibrated from the paper's misprediction columns and from the
// qualitative descriptions in Sections 4.2-4.5.
var profiles = []Profile{
	// MediaBench.
	{Name: "adpcm.d", Suite: MediaBench, CommPct: 0.0, PartialPct: 0.0, HardPer10k: 0.2, FootprintKB: 16, BranchEntropy: 0.2},
	{Name: "adpcm.e", Suite: MediaBench, CommPct: 0.0, PartialPct: 0.0, HardPer10k: 0.2, FootprintKB: 16, BranchEntropy: 0.2},
	{Name: "epic.e", Suite: MediaBench, CommPct: 8.4, PartialPct: 1.9, PathDepFrac: 0.1, HardPer10k: 5.3, FootprintKB: 64, BranchEntropy: 0.15},
	{Name: "epic.d", Suite: MediaBench, CommPct: 17.0, PartialPct: 5.0, PathDepFrac: 0.15, HardPer10k: 8.9, PartialStoreFrac: 0.15, FootprintKB: 64, BranchEntropy: 0.2},
	{Name: "g721.d", Suite: MediaBench, CommPct: 6.3, PartialPct: 4.7, PathDepFrac: 0.05, HardPer10k: 0.0, FootprintKB: 16, BranchEntropy: 0.2},
	{Name: "g721.e", Suite: MediaBench, CommPct: 6.9, PartialPct: 5.8, PathDepFrac: 0.05, HardPer10k: 40.9, PartialStoreFrac: 0.5, FootprintKB: 16, BranchEntropy: 0.2},
	{Name: "gs.d", Suite: MediaBench, CommPct: 12.3, PartialPct: 8.0, PathDepFrac: 0.25, HardPer10k: 56.8, PartialStoreFrac: 0.2, FootprintKB: 128, BranchEntropy: 0.25},
	{Name: "gsm.d", Suite: MediaBench, CommPct: 1.4, PartialPct: 0.3, HardPer10k: 2.1, FootprintKB: 32, BranchEntropy: 0.15},
	{Name: "gsm.e", Suite: MediaBench, CommPct: 1.1, PartialPct: 0.5, HardPer10k: 0.4, FootprintKB: 32, BranchEntropy: 0.15},
	{Name: "jpeg.d", Suite: MediaBench, CommPct: 1.1, PartialPct: 0.2, HardPer10k: 2.2, FootprintKB: 64, BranchEntropy: 0.15},
	{Name: "jpeg.e", Suite: MediaBench, CommPct: 10.8, PartialPct: 0.2, PathDepFrac: 0.1, HardPer10k: 8.0, FootprintKB: 64, BranchEntropy: 0.15},
	{Name: "mesa.m", Suite: MediaBench, CommPct: 42.7, PartialPct: 18.6, PathDepFrac: 0.3, HardPer10k: 84.5, PartialStoreFrac: 0.1, FootprintKB: 96, FPHeavy: true, BranchEntropy: 0.2},
	{Name: "mesa.o", Suite: MediaBench, CommPct: 48.0, PartialPct: 19.0, PathDepFrac: 0.3, HardPer10k: 76.3, PartialStoreFrac: 0.1, FootprintKB: 96, FPHeavy: true, BranchEntropy: 0.2},
	{Name: "mesa.t", Suite: MediaBench, CommPct: 32.3, PartialPct: 15.4, PathDepFrac: 0.3, HardPer10k: 51.1, PartialStoreFrac: 0.1, FootprintKB: 96, FPHeavy: true, BranchEntropy: 0.2},
	{Name: "mpeg2.d", Suite: MediaBench, CommPct: 24.3, PartialPct: 0.4, PathDepFrac: 0.1, HardPer10k: 2.0, FootprintKB: 96, BranchEntropy: 0.15},
	{Name: "mpeg2.e", Suite: MediaBench, CommPct: 4.4, PartialPct: 0.6, HardPer10k: 0.7, FootprintKB: 96, BranchEntropy: 0.15},
	{Name: "pegwit.d", Suite: MediaBench, CommPct: 6.4, PartialPct: 6.3, PathDepFrac: 0.1, HardPer10k: 6.2, PartialStoreFrac: 0.2, FootprintKB: 32, BranchEntropy: 0.2},
	{Name: "pegwit.e", Suite: MediaBench, CommPct: 5.6, PartialPct: 4.7, PathDepFrac: 0.1, HardPer10k: 7.1, PartialStoreFrac: 0.2, FootprintKB: 32, BranchEntropy: 0.2},

	// SPECint.
	{Name: "bzip2", Suite: SPECint, CommPct: 8.8, PartialPct: 5.9, PathDepFrac: 0.15, HardPer10k: 24.6, PartialStoreFrac: 0.15, FootprintKB: 256, BranchEntropy: 0.35},
	{Name: "crafty", Suite: SPECint, CommPct: 2.8, PartialPct: 1.9, PathDepFrac: 0.2, HardPer10k: 17.5, FootprintKB: 128, BranchEntropy: 0.35},
	{Name: "eon.c", Suite: SPECint, CommPct: 20.4, PartialPct: 3.2, PathDepFrac: 0.4, HardPer10k: 61.2, FootprintKB: 64, FPHeavy: true, BranchEntropy: 0.3},
	{Name: "eon.k", Suite: SPECint, CommPct: 15.4, PartialPct: 1.7, PathDepFrac: 0.4, HardPer10k: 56.6, FootprintKB: 64, FPHeavy: true, BranchEntropy: 0.3},
	{Name: "eon.r", Suite: SPECint, CommPct: 17.3, PartialPct: 2.5, PathDepFrac: 0.4, HardPer10k: 71.4, FootprintKB: 64, FPHeavy: true, BranchEntropy: 0.3},
	{Name: "gap", Suite: SPECint, CommPct: 8.1, PartialPct: 0.2, PathDepFrac: 0.1, HardPer10k: 4.5, FootprintKB: 192, BranchEntropy: 0.3},
	{Name: "gcc", Suite: SPECint, CommPct: 7.7, PartialPct: 1.4, PathDepFrac: 0.3, HardPer10k: 17.4, FootprintKB: 256, BranchEntropy: 0.4},
	{Name: "gzip", Suite: SPECint, CommPct: 15.0, PartialPct: 8.7, PathDepFrac: 0.1, HardPer10k: 7.3, PartialStoreFrac: 0.1, FootprintKB: 192, BranchEntropy: 0.35},
	{Name: "mcf", Suite: SPECint, CommPct: 0.9, PartialPct: 0.1, HardPer10k: 27.7, FootprintKB: 4096, BranchEntropy: 0.4},
	{Name: "parser", Suite: SPECint, CommPct: 8.2, PartialPct: 2.6, PathDepFrac: 0.25, HardPer10k: 22.4, FootprintKB: 192, BranchEntropy: 0.4},
	{Name: "perl.d", Suite: SPECint, CommPct: 9.9, PartialPct: 1.9, PathDepFrac: 0.2, HardPer10k: 4.5, FootprintKB: 128, BranchEntropy: 0.35},
	{Name: "perl.s", Suite: SPECint, CommPct: 11.5, PartialPct: 2.7, PathDepFrac: 0.2, HardPer10k: 4.9, FootprintKB: 128, BranchEntropy: 0.35},
	{Name: "twolf", Suite: SPECint, CommPct: 6.3, PartialPct: 5.0, PathDepFrac: 0.2, HardPer10k: 21.4, PartialStoreFrac: 0.1, FootprintKB: 256, BranchEntropy: 0.4},
	{Name: "vortex", Suite: SPECint, CommPct: 17.9, PartialPct: 4.7, PathDepFrac: 0.2, HardPer10k: 12.1, FootprintKB: 256, BranchEntropy: 0.25},
	{Name: "vpr.p", Suite: SPECint, CommPct: 6.3, PartialPct: 4.5, PathDepFrac: 0.3, HardPer10k: 55.0, PartialStoreFrac: 0.1, FootprintKB: 192, BranchEntropy: 0.4},
	{Name: "vpr.r", Suite: SPECint, CommPct: 17.0, PartialPct: 5.6, PathDepFrac: 0.3, HardPer10k: 34.1, PartialStoreFrac: 0.1, FootprintKB: 192, BranchEntropy: 0.4},

	// SPECfp.
	{Name: "ammp", Suite: SPECfp, CommPct: 4.1, PartialPct: 0.1, HardPer10k: 4.4, FootprintKB: 512, FPHeavy: true, BranchEntropy: 0.1},
	{Name: "applu", Suite: SPECfp, CommPct: 4.9, PartialPct: 0.0, HardPer10k: 0.1, FootprintKB: 512, FPHeavy: true, BranchEntropy: 0.05},
	{Name: "apsi", Suite: SPECfp, CommPct: 3.8, PartialPct: 0.5, HardPer10k: 4.7, FootprintKB: 384, FPHeavy: true, BranchEntropy: 0.1},
	{Name: "art", Suite: SPECfp, CommPct: 1.4, PartialPct: 0.4, HardPer10k: 0.1, FootprintKB: 2048, FPHeavy: true, BranchEntropy: 0.1},
	{Name: "equake", Suite: SPECfp, CommPct: 3.2, PartialPct: 0.1, HardPer10k: 0.7, FootprintKB: 1024, FPHeavy: true, BranchEntropy: 0.1},
	{Name: "facerec", Suite: SPECfp, CommPct: 0.8, PartialPct: 0.6, HardPer10k: 0.2, FootprintKB: 512, FPHeavy: true, BranchEntropy: 0.1},
	{Name: "galgel", Suite: SPECfp, CommPct: 0.5, PartialPct: 0.0, HardPer10k: 0.5, FootprintKB: 384, FPHeavy: true, BranchEntropy: 0.05},
	{Name: "lucas", Suite: SPECfp, CommPct: 0.0, PartialPct: 0.0, HardPer10k: 0.0, FootprintKB: 512, FPHeavy: true, BranchEntropy: 0.05},
	{Name: "mesa", Suite: SPECfp, CommPct: 12.1, PartialPct: 1.7, PathDepFrac: 0.2, HardPer10k: 2.2, FootprintKB: 96, FPHeavy: true, BranchEntropy: 0.15},
	{Name: "mgrid", Suite: SPECfp, CommPct: 1.2, PartialPct: 0.0, HardPer10k: 0.1, FootprintKB: 768, FPHeavy: true, BranchEntropy: 0.05},
	{Name: "sixtrack", Suite: SPECfp, CommPct: 9.4, PartialPct: 1.0, PathDepFrac: 0.35, HardPer10k: 59.2, FootprintKB: 256, FPHeavy: true, BranchEntropy: 0.15},
	{Name: "swim", Suite: SPECfp, CommPct: 2.9, PartialPct: 0.0, HardPer10k: 0.3, FootprintKB: 1024, FPHeavy: true, BranchEntropy: 0.05},
	{Name: "wupwise", Suite: SPECfp, CommPct: 5.5, PartialPct: 0.8, HardPer10k: 1.8, FootprintKB: 512, FPHeavy: true, BranchEntropy: 0.1},
}

// Names returns all benchmark names in the paper's order.
func Names() []string {
	out := make([]string, len(profiles))
	for i, p := range profiles {
		out[i] = p.Name
	}
	return out
}

// ProfileByName returns the profile with the given name.
func ProfileByName(name string) (Profile, error) {
	for _, p := range profiles {
		if p.Name == name {
			return p, nil
		}
	}
	return Profile{}, fmt.Errorf("workload: unknown benchmark %q", name)
}

// SelectedNames returns the subset of benchmarks the paper plots in
// Figures 3-5 (one representative set per suite).
func SelectedNames() []string {
	return []string{
		"g721.e", "gs.d", "mesa.o", "mpeg2.d", "pegwit.e",
		"eon.k", "gap", "gzip", "perl.s", "vortex", "vpr.p",
		"applu", "apsi", "sixtrack", "wupwise",
	}
}

// Validate checks a profile for internal consistency.
func (p Profile) Validate() error {
	if p.Name == "" {
		return fmt.Errorf("workload: profile without a name")
	}
	if p.CommPct < 0 || p.CommPct > 100 {
		return fmt.Errorf("workload %s: CommPct %v out of range", p.Name, p.CommPct)
	}
	if p.PartialPct < 0 || p.PartialPct > p.CommPct {
		return fmt.Errorf("workload %s: PartialPct %v must be within CommPct %v", p.Name, p.PartialPct, p.CommPct)
	}
	for _, f := range []struct {
		name string
		v    float64
	}{
		{"PathDepFrac", p.PathDepFrac},
		{"PartialStoreFrac", p.PartialStoreFrac},
		{"BranchEntropy", p.BranchEntropy},
	} {
		if f.v < 0 || f.v > 1 {
			return fmt.Errorf("workload %s: %s %v out of [0,1]", p.Name, f.name, f.v)
		}
	}
	if p.HardPer10k < 0 || p.HardPer10k > 10000 {
		return fmt.Errorf("workload %s: HardPer10k %v out of range", p.Name, p.HardPer10k)
	}
	if p.FootprintKB <= 0 {
		return fmt.Errorf("workload %s: FootprintKB must be positive", p.Name)
	}
	return nil
}

// seedFor derives a deterministic RNG seed from a benchmark name.
func seedFor(name string) uint64 {
	var h uint64 = 1469598103934665603 // FNV offset basis
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	if h == 0 {
		h = 0x9E3779B97F4A7C15
	}
	return h
}

// sortedCopy is a test helper ensuring profile names are unique.
func sortedCopy() []string {
	names := Names()
	sort.Strings(names)
	return names
}
