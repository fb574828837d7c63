package experiments

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/emu"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// metaValue returns the value of the named report meta entry ("" if absent).
func metaValue(rep *Report, key string) string {
	for _, m := range rep.Meta {
		if m.Key == key {
			return m.Value
		}
	}
	return ""
}

// writeTrace records the named workload at the given length and commits it
// (trace file + manifest) under dir, returning the entry's ref name.
func writeTrace(t *testing.T, dir, name string, iters int) string {
	t.Helper()
	p, err := workload.Generate(name, workload.Options{Iterations: iters})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.RecordTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	tmp := filepath.Join(dir, "tmp.nsqt")
	sum, err := traceio.WriteFile(tmp, tr)
	if err != nil {
		t.Fatal(err)
	}
	m := traceio.NewManifest(sum, "workload:"+name, "test")
	if err := os.Rename(tmp, filepath.Join(dir, m.TraceFilename())); err != nil {
		t.Fatal(err)
	}
	if _, err := traceio.WriteEntry(dir, m); err != nil {
		t.Fatal(err)
	}
	return m.RefName()
}

// writeTestTraces commits a minimal one-trace corpus for the registry test,
// returning the directory and the trace's ref name.
func writeTestTraces(t *testing.T) (string, string) {
	t.Helper()
	dir := t.TempDir()
	ref := writeTrace(t, dir, "gzip", 25)
	return dir, ref
}

// TestTraceExperimentMatchesLive is the frontend's core guarantee: replaying
// a recorded trace file through the trace experiment produces measurements
// bit-identical to simulating the same program directly. A recorded file is
// a different *source*, never a different result.
func TestTraceExperimentMatchesLive(t *testing.T) {
	dir := t.TempDir()
	writeTrace(t, dir, "gzip", 30)

	exp, err := Lookup("trace")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run(context.Background(), Options{
		TraceDir: dir,
		Configs:  []string{"nosq-delay", "perfect-smb"},
		Windows:  []int{64},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows, ok := rep.Rows.([]SweepRow)
	if !ok || len(rows) != 2 {
		t.Fatalf("trace experiment returned %T with %d rows, want 2 SweepRows", rep.Rows, len(rows))
	}

	p, err := workload.Generate("gzip", workload.Options{Iterations: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rows {
		k, err := core.KindByName(r.Config)
		if err != nil {
			t.Fatal(err)
		}
		run, err := core.SimulateProgram(p, core.ConfigFor(k, r.Window))
		if err != nil {
			t.Fatal(err)
		}
		if r.Cycles != run.Cycles || r.Committed != run.Committed || r.IPC != run.IPC() ||
			r.Bypassed != run.BypassedLoads || r.Flushes != run.Flushes {
			t.Errorf("%s: replayed row %+v differs from live simulation (cycles=%d committed=%d)",
				r.Config, r, run.Cycles, run.Committed)
		}
		if !strings.Contains(r.Benchmark, "gzip-") {
			t.Errorf("row benchmark %q is not a trace ref name", r.Benchmark)
		}
	}
	if scope := metaValue(rep, "trace-scope"); !strings.HasPrefix(scope, "trace:") {
		t.Errorf("report meta trace-scope = %q", scope)
	}
}

// TestTraceExperimentFilter pins name-based selection: ref names select,
// human names do not (identity is content-addressed).
func TestTraceExperimentFilter(t *testing.T) {
	dir := t.TempDir()
	refGzip := writeTrace(t, dir, "gzip", 25)
	writeTrace(t, dir, "g721.e", 25)

	exp, err := Lookup("trace")
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run(context.Background(), Options{
		TraceDir:   dir,
		Benchmarks: []string{refGzip},
		Configs:    []string{"nosq-delay"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if got := metaValue(rep, "traces"); got != refGzip {
		t.Errorf("filtered run replayed %q, want %q", got, refGzip)
	}

	_, err = exp.Run(context.Background(), Options{
		TraceDir:   dir,
		Benchmarks: []string{"gzip"}, // human name, not a ref name
		Configs:    []string{"nosq-delay"},
	})
	if err == nil || !strings.Contains(err.Error(), "no trace named") {
		t.Errorf("bare human name selected a trace (err=%v)", err)
	}
}

// TestTraceScopeTracksContent pins that the experiment scope is derived from
// trace contents: two corpora of different traces get different scopes, so
// no checkpoint or result-cache entry can cross between them.
func TestTraceScopeTracksContent(t *testing.T) {
	dirA, dirB := t.TempDir(), t.TempDir()
	writeTrace(t, dirA, "gzip", 25)
	writeTrace(t, dirB, "gzip", 30) // same program, different length

	load := func(dir string) []traceio.Entry {
		entries, err := traceio.LoadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		return entries
	}
	a, b := traceSource(load(dirA)).scope, traceSource(load(dirB)).scope
	if a == b {
		t.Fatalf("different trace contents share scope %s", a)
	}
}

// TestTraceSourceRejectsReplacedFile: a trace file replaced by another valid
// trace after its directory was listed must fail its workload, naming the
// file and both hashes, instead of simulating the new content under the
// listed ref name and scope.
func TestTraceSourceRejectsReplacedFile(t *testing.T) {
	dir := t.TempDir()
	gzipRef := writeTrace(t, dir, "gzip", 25)
	mcfRef := writeTrace(t, dir, "mcf", 25)
	entries, err := traceio.LoadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	src := traceSource(entries)
	byRef := make(map[string]traceio.Entry)
	for _, e := range entries {
		byRef[e.RefName()] = e
	}
	gzip, mcf := byRef[gzipRef], byRef[mcfRef]
	mcfBytes, err := os.ReadFile(mcf.Path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(gzip.Path, mcfBytes, 0o644); err != nil {
		t.Fatal(err)
	}

	rec, err := src.open(gzipRef, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := rec()
	if err == nil {
		t.Fatalf("replaced file decoded as program %q for ref %s with no error", tr.Name(), gzipRef)
	}
	for _, want := range []string{gzip.Path, gzip.TraceHash, mcf.TraceHash} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not name %s", err, want)
		}
	}
	// The untouched file still decodes.
	if rec, err = src.open(mcfRef, Options{}); err == nil {
		_, err = rec()
	}
	if err != nil {
		t.Fatalf("untouched trace: %v", err)
	}
}
