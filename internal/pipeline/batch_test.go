package pipeline

import (
	"os"
	"reflect"
	"testing"

	"repro/internal/emu"
	"repro/internal/workload"
)

// TestBatchBitIdenticalToScalar is the core config-parallel guarantee: a
// Batch member's statistics must be bit-for-bit identical to a solo
// simulation (NewFromTrace + Run) of the same (trace, configuration) pair,
// across every configuration kind. Members share one TraceMeta and run
// interleaved in instruction quanta, so this checks that neither sharing
// nor interleaving leaks state between them.
func TestBatchBitIdenticalToScalar(t *testing.T) {
	for _, bench := range []string{"gs.d", "vortex", "wupwise", "gzip"} {
		prog, err := workload.Generate(bench, workload.Options{Iterations: 40})
		if err != nil {
			t.Fatalf("generate %s: %v", bench, err)
		}
		trace, err := emu.RecordTrace(prog, 0)
		if err != nil {
			t.Fatalf("record %s: %v", bench, err)
		}
		cfgs := allConfigs()
		b, err := NewBatch(trace, cfgs)
		if err != nil {
			t.Fatalf("NewBatch(%s): %v", bench, err)
		}
		results, errs := b.Run()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s/%s: batch run: %v", bench, cfg.Name, errs[i])
			}
			sim, err := NewFromTrace(trace, cfg)
			if err != nil {
				t.Fatalf("NewFromTrace(%s/%s): %v", bench, cfg.Name, err)
			}
			want, err := sim.Run()
			if err != nil {
				t.Fatalf("%s/%s: scalar run: %v", bench, cfg.Name, err)
			}
			if !reflect.DeepEqual(results[i], want) {
				t.Errorf("%s/%s: batch result differs from scalar\nbatch:  %+v\nscalar: %+v",
					bench, cfg.Name, results[i], want)
			}
		}
	}
}

// TestBatchBitIdenticalOnStressScenarios repeats the identity check on the
// adversarial scenario suite, which drives squash storms, partial-word
// traffic, and multi-source overlaps — the paths where the event-driven
// scheduler's lazy invalidation and the multi-source re-poll actually fire.
func TestBatchBitIdenticalOnStressScenarios(t *testing.T) {
	scens := workload.StressScenarios()
	if len(scens) > 3 {
		scens = scens[:3]
	}
	cfgs := []Config{BaselineConfig(), NoSQConfig(true), NoSQConfig(false)}
	for _, sc := range scens {
		prog, err := workload.GenerateScenario(sc, workload.Options{Iterations: 30})
		if err != nil {
			t.Fatalf("generate scenario %s: %v", sc.Name, err)
		}
		trace, err := emu.RecordTrace(prog, 0)
		if err != nil {
			t.Fatalf("record %s: %v", sc.Name, err)
		}
		b, err := NewBatch(trace, cfgs)
		if err != nil {
			t.Fatalf("NewBatch(%s): %v", sc.Name, err)
		}
		results, errs := b.Run()
		for i, cfg := range cfgs {
			if errs[i] != nil {
				t.Fatalf("%s/%s: batch run: %v", sc.Name, cfg.Name, errs[i])
			}
			sim, err := NewFromTrace(trace, cfg)
			if err != nil {
				t.Fatalf("NewFromTrace: %v", err)
			}
			want, err := sim.Run()
			if err != nil {
				t.Fatalf("%s/%s: scalar run: %v", sc.Name, cfg.Name, err)
			}
			if !reflect.DeepEqual(results[i], want) {
				t.Errorf("%s/%s: batch result differs from scalar\nbatch:  %+v\nscalar: %+v",
					sc.Name, cfg.Name, results[i], want)
			}
		}
	}
}

// TestBatchMixedGeometry checks that a batch whose members differ in window
// geometry and instruction limits (the case the sweep planner deliberately
// does not group) still produces bit-identical per-member results: Batch
// itself is correct for arbitrary member sets; grouping policy is purely a
// throughput decision.
func TestBatchMixedGeometry(t *testing.T) {
	prog, err := workload.Generate("vortex", workload.Options{Iterations: 40})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace, err := emu.RecordTrace(prog, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	small := NoSQConfig(true).WithWindow(64)
	limited := BaselineConfig()
	limited.MaxInsts = trace.Len() / 2
	cfgs := []Config{NoSQConfig(true), small, limited}
	b, err := NewBatch(trace, cfgs)
	if err != nil {
		t.Fatalf("NewBatch: %v", err)
	}
	results, errs := b.Run()
	for i, cfg := range cfgs {
		if errs[i] != nil {
			t.Fatalf("%s: batch run: %v", cfg.Name, errs[i])
		}
		sim, err := NewFromTrace(trace, cfg)
		if err != nil {
			t.Fatalf("NewFromTrace: %v", err)
		}
		want, err := sim.Run()
		if err != nil {
			t.Fatalf("%s: scalar run: %v", cfg.Name, err)
		}
		if !reflect.DeepEqual(results[i], want) {
			t.Errorf("member %d (%s): batch result differs from scalar", i, cfg.Name)
		}
	}
}

// benchTraceAndConfigs records one trace (gzip by default; PIPELINE_BENCH
// selects another workload for targeted profiling) and the full five-config
// grid the perf harness batches, shared by the two benchmarks below.
func benchTraceAndConfigs(b *testing.B) (*emu.Trace, []Config) {
	b.Helper()
	bench := os.Getenv("PIPELINE_BENCH")
	if bench == "" {
		bench = "gzip"
	}
	prog, err := workload.Generate(bench, workload.Options{Iterations: 120})
	if err != nil {
		b.Fatalf("generate: %v", err)
	}
	trace, err := emu.RecordTrace(prog, 0)
	if err != nil {
		b.Fatalf("record: %v", err)
	}
	return trace, allConfigs()
}

// BenchmarkBatchRun and BenchmarkScalarRun measure the same five-config
// grid config-parallel and scalar; their ratio is the batch engine's win
// on one benchmark (cmd/nosq-bench measures it across the fig2 subset).
func BenchmarkBatchRun(b *testing.B) {
	trace, cfgs := benchTraceAndConfigs(b)
	meta, err := NewTraceMeta(trace)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bt, err := NewBatchWithMeta(trace, meta, cfgs)
		if err != nil {
			b.Fatal(err)
		}
		if _, errs := bt.Run(); errs != nil {
			for _, e := range errs {
				if e != nil {
					b.Fatal(e)
				}
			}
		}
	}
}

func BenchmarkScalarRun(b *testing.B) {
	trace, cfgs := benchTraceAndConfigs(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			sim, err := NewFromTrace(trace, cfg)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := sim.Run(); err != nil {
				b.Fatal(err)
			}
		}
	}
}

// TestBatchRejectsEmpty covers the degenerate constructor case.
func TestBatchRejectsEmpty(t *testing.T) {
	prog, err := workload.Generate("gzip", workload.Options{Iterations: 5})
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	trace, err := emu.RecordTrace(prog, 0)
	if err != nil {
		t.Fatalf("record: %v", err)
	}
	if _, err := NewBatch(trace, nil); err == nil {
		t.Fatal("NewBatch with no configurations: want error")
	}
}
