package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/core"
	"repro/internal/stats"
)

// staticStore is a read-only ResultStore seeded with fixed entries — the
// remote worker's view of a leased task's already-resolved pairs.
type staticStore struct{ entries []CheckpointEntry }

func (s staticStore) Load() ([]CheckpointEntry, int, error) { return s.entries, 0, nil }
func (s staticStore) Append(CheckpointEntry) error          { return nil }

// entryCollector is a ProgressSink that records executed pairs.
type entryCollector struct {
	mu      sync.Mutex
	entries []CheckpointEntry
}

func (c *entryCollector) Planned(total, resumed, skippedShard, pending int) {}
func (c *entryCollector) PairDone(e CheckpointEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, e)
}

func TestSweepSliceSelectsContiguousRange(t *testing.T) {
	benchmarks := []string{"gzip", "applu", "mesa.o"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	opts := Options{Iterations: 25, Parallelism: 2, Slice: &PairSlice{Start: 2, End: 5}}

	runs, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if err != nil {
		t.Fatal(err)
	}
	if sum.Total != 6 || sum.Executed != 3 || sum.SkippedShard != 3 {
		t.Fatalf("summary = %+v, want 3 of 6 executed", sum)
	}
	// The deterministic order is benchmarks in the given order × sorted
	// configuration keys; positions 2..4 are applu×both configs and
	// mesa.o×first config.
	got := 0
	for b, byCfg := range runs {
		got += len(byCfg)
		for k := range byCfg {
			switch {
			case b == "applu":
			case b == "mesa.o" && k == core.Baseline.String():
			default:
				t.Errorf("unexpected pair %s/%s for slice [2,5)", b, k)
			}
		}
	}
	if got != 3 {
		t.Errorf("got %d runs, want 3", got)
	}
}

func TestSweepSliceInvalid(t *testing.T) {
	benchmarks := []string{"gzip"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline}, 0)
	for _, s := range []PairSlice{{Start: -1, End: 2}, {Start: 3, End: 1}} {
		sl := s
		_, _, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, Options{Iterations: 5, Slice: &sl})
		if err == nil {
			t.Errorf("slice %+v accepted, want error", s)
		}
	}
}

func copyFile(t *testing.T, src, dst string) {
	t.Helper()
	b, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestExecutorMergedReportByteIdentical drives the remote-execution seam the
// way the distributed coordinator does — pending pairs chunked into
// contiguous slices, each slice run by an emulated worker via the same
// experiment with Options.Slice and Done-entry seeding — and verifies the
// merged report is byte-identical to a locally executed run in every render
// format, including the resume accounting in the metadata.
func TestExecutorMergedReportByteIdentical(t *testing.T) {
	exp, err := Lookup("fig2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := Options{Iterations: 12, Benchmarks: []string{"gzip", "applu"}, Parallelism: 2}
	ctx := context.Background()

	// Seed a partial checkpoint (3 of the 10 pairs) so the distributed run
	// also exercises slices spanning already-resolved pairs.
	seedCk := filepath.Join(dir, "seed.jsonl")
	seedOpts := base
	seedOpts.Checkpoint = seedCk
	seedOpts.Slice = &PairSlice{Start: 0, End: 3}
	if _, err := exp.Run(ctx, seedOpts); err != nil {
		t.Fatal(err)
	}

	refCk := filepath.Join(dir, "ref.jsonl")
	copyFile(t, seedCk, refCk)
	refOpts := base
	refOpts.Checkpoint = refCk
	refRep, err := exp.Run(ctx, refOpts)
	if err != nil {
		t.Fatal(err)
	}

	distCk := filepath.Join(dir, "dist.jsonl")
	copyFile(t, seedCk, distCk)
	distOpts := base
	distOpts.Checkpoint = distCk
	distOpts.Executor = func(ctx context.Context, req ExecRequest) error {
		if len(req.Pending) != 7 {
			return fmt.Errorf("pending = %d pairs, want 7", len(req.Pending))
		}
		if len(req.Resumed) != 3 {
			return fmt.Errorf("resumed = %d entries, want 3", len(req.Resumed))
		}
		// Two emulated workers, each owning one contiguous slice of the full
		// pair order. The second slice starts at the first chunk boundary, so
		// one slice spans the resumed pairs.
		half := len(req.Pending) / 2
		chunks := [][]PairJob{req.Pending[:half], req.Pending[half:]}
		var wg sync.WaitGroup
		errCh := make(chan error, len(chunks))
		for _, chunk := range chunks {
			start, end := chunk[0].Index, chunk[len(chunk)-1].Index+1
			byPair := make(map[string]PairJob, len(chunk))
			for _, pj := range chunk {
				byPair[pj.Benchmark+"\x00"+pj.Config] = pj
			}
			var done []CheckpointEntry
			for i := start; i < end; i++ {
				if e, ok := req.Resumed[i]; ok {
					done = append(done, e)
				}
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				col := &entryCollector{}
				wopts := base
				wopts.Slice = &PairSlice{Start: start, End: end}
				wopts.Store = staticStore{entries: done}
				wopts.Progress = col
				if _, err := exp.Run(ctx, wopts); err != nil {
					errCh <- err
					return
				}
				for _, e := range col.entries {
					pj, ok := byPair[e.Benchmark+"\x00"+e.Config]
					if !ok {
						errCh <- fmt.Errorf("worker executed %s/%s outside its slice", e.Benchmark, e.Config)
						return
					}
					req.Emit(pj, e.Run)
				}
			}()
		}
		wg.Wait()
		close(errCh)
		return <-errCh
	}
	distRep, err := exp.Run(ctx, distOpts)
	if err != nil {
		t.Fatal(err)
	}

	// Batch accounting describes how pairs were simulated, not what was
	// measured: the local reference run batches in-process while the executor
	// run defers execution, so those fields legitimately differ.
	refSum, distSum := refRep.Summary, distRep.Summary
	refSum.BatchGroups, refSum.BatchedPairs = 0, 0
	distSum.BatchGroups, distSum.BatchedPairs = 0, 0
	if refSum != distSum {
		t.Errorf("summaries differ: local %+v, distributed %+v", refSum, distSum)
	}
	for _, format := range stats.Formats() {
		ref, err := refRep.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		dist, err := distRep.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if ref != dist {
			t.Errorf("%s render of distributed run differs from local run:\n--- local ---\n%s\n--- distributed ---\n%s",
				format, ref, dist)
		}
	}
}

// TestExecutorPartialFailure: an executor that delivers only some pairs and
// then fails leaves the delivered pairs in the store (a later local run
// resumes them) and reports the shortfall as failed pairs. Duplicate
// emissions are ignored.
func TestExecutorPartialFailure(t *testing.T) {
	benchmarks := []string{"gzip", "applu"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	ck := filepath.Join(t.TempDir(), "ck.jsonl")
	boom := errors.New("worker fleet lost")

	opts := Options{Iterations: 25, Checkpoint: ck}
	opts.Executor = func(ctx context.Context, req ExecRequest) error {
		// Execute just the first pair — through a real single-pair slice run —
		// then emit it twice and fail.
		pj := req.Pending[0]
		col := &entryCollector{}
		wopts := Options{Iterations: opts.Iterations, Parallelism: 1,
			Slice: &PairSlice{Start: pj.Index, End: pj.Index + 1}, Progress: col}
		if _, _, err := runSweep(ctx, benchmarkSource("", benchmarks), cfgs, wopts); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			req.Emit(pj, col.entries[0].Run)
		}
		return boom
	}
	_, sum, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, opts)
	if !errors.Is(err, boom) {
		t.Fatalf("error = %v, want the executor's", err)
	}
	if sum.Executed != 1 || sum.Failed != 3 {
		t.Fatalf("summary = %+v, want 1 executed (duplicate ignored), 3 failed", sum)
	}

	_, sum2, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs, Options{Iterations: 25, Checkpoint: ck})
	if err != nil {
		t.Fatal(err)
	}
	if sum2.Resumed != 1 || sum2.Executed != 3 {
		t.Fatalf("follow-up summary = %+v, want the delivered pair resumed", sum2)
	}
}
