package experiments

import (
	"context"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/stats"
)

// TestDecodeSweepRowsRoundTrip: decoding a grid report's JSON rendering gives
// back the report's rows exactly, except for the identity fields.
func TestDecodeSweepRowsRoundTrip(t *testing.T) {
	for _, c := range gridGoldenCases() {
		t.Run(c.name, func(t *testing.T) {
			exp, err := Lookup(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			rep, err := exp.Run(context.Background(), c.opts)
			if err != nil {
				t.Fatal(err)
			}
			rows, ok := rep.Rows.([]SweepRow)
			if !ok {
				t.Skipf("%s reports %T, not SweepRows", c.exp, rep.Rows)
			}
			doc, err := rep.Render(stats.FormatJSON)
			if err != nil {
				t.Fatal(err)
			}
			got, err := DecodeSweepRows([]byte(doc))
			if err != nil {
				t.Fatal(err)
			}
			want := append([]SweepRow(nil), rows...)
			for i := range want {
				want[i].Benchmark, want[i].Suite = "", 0
			}
			if len(want) == 0 || !reflect.DeepEqual(got, want) {
				t.Errorf("decoded rows differ from the report's:\n got %+v\nwant %+v", got, want)
			}
		})
	}
}

// TestDecodeSweepRowsNeedsEveryMeasurement: a report without every
// measurement column — another experiment's, or one whose column was
// renamed — is an error, never a row of zeros.
func TestDecodeSweepRowsNeedsEveryMeasurement(t *testing.T) {
	exp, _ := Lookup("table5")
	rep, err := exp.Run(context.Background(), Options{Iterations: 10, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ := rep.Render(stats.FormatJSON)
	if _, err := DecodeSweepRows([]byte(doc)); err == nil {
		t.Error("a table5 report decoded as sweep rows")
	}

	rep, err = Sweep(context.Background(), Options{Iterations: 10, Benchmarks: []string{"gzip"}})
	if err != nil {
		t.Fatal(err)
	}
	doc, _ = rep.Render(stats.FormatJSON)
	renamed := strings.ReplaceAll(doc, `"D$ reads"`, `"dcache reads"`)
	if _, err := DecodeSweepRows([]byte(renamed)); err == nil || !strings.Contains(err.Error(), "D$ reads") {
		t.Errorf("renamed column: err = %v, want one naming the missing column", err)
	}
}

// TestRepeatedNamesRunOnce: a workload name or window given twice is
// simulated and reported once, exactly as if it had been given once.
func TestRepeatedNamesRunOnce(t *testing.T) {
	traces := filepath.Join("..", "..", DefaultTraceDir)
	const ref = "gzip-2cafb0b2010ccd01"
	cases := []struct {
		name      string
		exp       string
		repeated  Options
		canonical Options
	}{
		{"sweep", "sweep",
			Options{Iterations: 20, Benchmarks: []string{"gzip", "applu", "gzip"}},
			Options{Iterations: 20, Benchmarks: []string{"gzip", "applu"}}},
		{"fig4", "fig4",
			Options{Iterations: 20, Benchmarks: []string{"gzip", "gzip"}},
			Options{Iterations: 20, Benchmarks: []string{"gzip"}}},
		{"scenario", "scenario",
			Options{Iterations: 10, Benchmarks: []string{"stress/phase-flip", "stress/phase-flip"},
				Configs: []string{"nosq-delay"}, Windows: []int{256, 128, 256}},
			Options{Iterations: 10, Benchmarks: []string{"stress/phase-flip"},
				Configs: []string{"nosq-delay"}, Windows: []int{256, 128}}},
		{"trace", "trace",
			Options{TraceDir: traces, Benchmarks: []string{ref, ref}, Configs: []string{"nosq-delay"},
				Windows: []int{128, 128}},
			Options{TraceDir: traces, Benchmarks: []string{ref}, Configs: []string{"nosq-delay"},
				Windows: []int{128}}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			exp, err := Lookup(c.exp)
			if err != nil {
				t.Fatal(err)
			}
			got, err := exp.Run(context.Background(), c.repeated)
			if err != nil {
				t.Fatal(err)
			}
			want, err := exp.Run(context.Background(), c.canonical)
			if err != nil {
				t.Fatal(err)
			}
			for _, format := range stats.Formats() {
				g, _ := got.Render(format)
				w, _ := want.Render(format)
				if g != w {
					t.Errorf("%s differs from the run naming each once:\n--- repeated ---\n%s\n--- once ---\n%s", format, g, w)
				}
			}
		})
	}
}

// TestRepeatedNamesExecutorMatchesLocal: a repeated benchmark name plans the
// same pairs for an Executor as for the local pool, so a fleet run reports
// what a local run reports.
func TestRepeatedNamesExecutorMatchesLocal(t *testing.T) {
	base := Options{Iterations: 20, Benchmarks: []string{"gzip", "gzip"},
		Configs: []string{"nosq-delay", "perfect-smb"}, Parallelism: 2}
	local, err := Sweep(context.Background(), base)
	if err != nil {
		t.Fatal(err)
	}

	dist := base
	dist.Executor = func(ctx context.Context, req ExecRequest) error {
		// One emulated worker re-derives the grid and runs the leased slice.
		col := &entryCollector{}
		wopts := base
		wopts.Slice = &PairSlice{Start: req.Pending[0].Index, End: req.Pending[len(req.Pending)-1].Index + 1}
		wopts.Progress = col
		if _, err := Sweep(ctx, wopts); err != nil {
			return err
		}
		for _, e := range col.entries {
			for _, pj := range req.Pending {
				if pj.Benchmark == e.Benchmark && pj.Config == e.Config {
					req.Emit(pj, e.Run)
				}
			}
		}
		return nil
	}
	remote, err := Sweep(context.Background(), dist)
	if err != nil {
		t.Fatal(err)
	}
	ls, rs := measured(local.Summary), measured(remote.Summary)
	if ls != rs || rs.Executed != 2 || rs.Failed != 0 {
		t.Errorf("summaries: local %+v, executor %+v; want both to execute the 2 distinct pairs", ls, rs)
	}
	for _, format := range stats.Formats() {
		l, _ := local.Render(format)
		r, _ := remote.Render(format)
		if l != r {
			t.Errorf("%s differs between local and executor runs:\n--- local ---\n%s\n--- executor ---\n%s", format, l, r)
		}
	}
}
