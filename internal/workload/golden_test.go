package workload

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/emu"
	"repro/internal/program"
	"repro/internal/traceio"
)

var update = flag.Bool("update", false, "rewrite testdata/workloads.golden")

// goldenIterations covers two of phase-flip's 32-iteration phases and two
// full burst/quiet cycles of burst-partial's 16-iteration bursts.
const goldenIterations = 64

// goldenCustomScenarios are declarative scenarios that, between them, use
// every store_distance, every partial_shape, an explicit seed and fp_heavy.
func goldenCustomScenarios() []Scenario {
	return []Scenario{
		{Name: "golden/default"},
		{Name: "golden/mixed-narrow", StoreDistance: DistanceMixed, PartialShape: ShapeNarrow,
			Mix: &SlotMix{IndepPct: 55, FullCommPct: 25, PathDepPct: 5, PartialPct: 10, PartialStorePct: 5}},
		{Name: "golden/near-signed-seed", StoreDistance: DistanceNear, PartialShape: ShapeSigned,
			Seed: 42, ErraticPer10k: 8},
		{Name: "golden/far-upper-fp", StoreDistance: DistanceFar, PartialShape: ShapeUpperHalf,
			FPHeavy: true, FootprintKB: 512, BranchEntropy: 0.3, ErraticPer10k: 20},
		{Name: "golden/beyond-mixed", StoreDistance: DistanceBeyondPredictor, PartialShape: ShapeMixed,
			Mix: &SlotMix{IndepPct: 40, FullCommPct: 40, PartialPct: 20}, FootprintKB: 4096},
	}
}

// TestNamedWorkloadsGolden pins the recorded trace of every named workload —
// the 47 Table 5 benchmarks, the built-in stress scenarios and the custom
// scenarios above — by the content hash traceio.Encode reports. A change to
// the generator that moves any generated instruction, address or branch
// outcome changes a hash here. Regenerate with
// `go test ./internal/workload -run NamedWorkloadsGolden -update` only for a
// deliberate change to the generated programs.
func TestNamedWorkloadsGolden(t *testing.T) {
	opts := Options{Iterations: goldenIterations}
	var got strings.Builder
	record := func(name string, p *program.Program, err error) {
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		tr, err := emu.RecordTrace(p, 0)
		if err != nil {
			t.Fatalf("%s: recording: %v", name, err)
		}
		sum, err := traceio.Encode(io.Discard, tr)
		if err != nil {
			t.Fatalf("%s: encoding: %v", name, err)
		}
		fmt.Fprintf(&got, "%s %s\n", name, sum.Hash)
	}
	for _, name := range Names() {
		p, err := Generate(name, opts)
		record(name, p, err)
	}
	for _, s := range append(StressScenarios(), goldenCustomScenarios()...) {
		p, err := GenerateScenario(s, opts)
		record(s.Name, p, err)
	}

	path := filepath.Join("testdata", "workloads.golden")
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/workload -run NamedWorkloadsGolden -update`): %v", err)
	}
	gotLines, wantLines := strings.Split(got.String(), "\n"), strings.Split(string(want), "\n")
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d workloads recorded, golden file has %d", len(gotLines)-1, len(wantLines)-1)
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("recorded %q, golden %q", gotLines[i], wantLines[i])
		}
	}
}
