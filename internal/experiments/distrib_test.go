package experiments

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/stats"
)

// staticStore is a read-only ResultStore seeded with fixed entries.
type staticStore struct{ entries []CheckpointEntry }

func (s staticStore) Lookup(keys []string) (map[string]CheckpointEntry, int, error) {
	want := keySet(keys)
	found := make(map[string]CheckpointEntry)
	for _, e := range s.entries {
		if want[e.Key()] {
			found[e.Key()] = e
		}
	}
	return found, 0, nil
}

func (s staticStore) Append(CheckpointEntry) error { return nil }

// entryCollector is a ProgressSink that records executed pairs and their
// wall times.
type entryCollector struct {
	mu      sync.Mutex
	entries []CheckpointEntry
	walls   []time.Duration
}

func (c *entryCollector) Planned(total, resumed, skippedShard, pending int) {}
func (c *entryCollector) PairDone(e CheckpointEntry, wall time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.entries = append(c.entries, e)
	c.walls = append(c.walls, wall)
}

// positions lists the pairs' positions in the full pair order, as a shard
// task names the pairs it owes.
func positions(pjs []PairJob) []int {
	out := make([]int, len(pjs))
	for i, pj := range pjs {
		out[i] = pj.Index
	}
	return out
}

func TestSweepSliceSelectsContiguousRange(t *testing.T) {
	benchmarks := []string{"gzip", "applu", "mesa.o"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline, core.NoSQDelay}, 0)
	opts := Options{Iterations: 25, Parallelism: 2, Pairs: []int{2, 3, 4}}

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
				t.Errorf("unexpected pair %s/%s for positions 2..4", b, k)
			}
		}
	}
	if got != 3 {
		t.Errorf("got %d runs, want 3", got)
	}
}

// TestSweepSliceInvalid: a listed position outside the grid fails the run
// before anything executes.
func TestSweepSliceInvalid(t *testing.T) {
	benchmarks := []string{"gzip"}
	cfgs := kindConfigs([]core.ConfigKind{core.Baseline}, 0) // a 1-pair grid
	for _, pairs := range [][]int{{-1}, {1}, {0, 1}} {
		col := &entryCollector{}
		_, _, err := runSweep(context.Background(), benchmarkSource("", benchmarks), cfgs,
			Options{Iterations: 5, Pairs: pairs, Progress: col})
		if err == nil || !strings.Contains(err.Error(), "outside the 1-pair grid") {
			t.Errorf("positions %v: error %v, want one naming the grid", pairs, err)
		}
		if len(col.entries) != 0 {
			t.Errorf("positions %v: %d pairs ran before the error", pairs, len(col.entries))
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
// way the distributed coordinator does — pending pairs split into runs in
// pair order, each run executed by an emulated worker via the same
// experiment with Options.Pairs — and verifies the merged report is
// byte-identical to a locally executed run in every render format, including
// the resume accounting in the metadata.
func TestExecutorMergedReportByteIdentical(t *testing.T) {
	exp, err := Lookup("fig2")
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	base := Options{Iterations: 12, Benchmarks: []string{"gzip", "applu"}, Parallelism: 2}
	ctx := context.Background()

	// Seed a partial checkpoint (3 of the 10 pairs) so the executor is
	// handed only the pairs still pending.
	seedCk := filepath.Join(dir, "seed.jsonl")
	seedOpts := base
	seedOpts.Checkpoint = seedCk
	seedOpts.Pairs = []int{0, 1, 2}
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
		if len(req.Pending) != 7 || req.Pending[0].Index != 3 {
			return fmt.Errorf("pending = %+v, want the 7 pairs after the 3 resumed ones", req.Pending)
		}
		// Two emulated workers, each owning one run of the pending pairs.
		half := len(req.Pending) / 2
		chunks := [][]PairJob{req.Pending[:half], req.Pending[half:]}
		var wg sync.WaitGroup
		errCh := make(chan error, len(chunks))
		for _, chunk := range chunks {
			byPair := make(map[string]PairJob, len(chunk))
			for _, pj := range chunk {
				byPair[pj.Benchmark+"\x00"+pj.Config] = pj
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				col := &entryCollector{}
				wopts := base
				wopts.Pairs = positions(chunk)
				wopts.Progress = col
				if _, err := exp.Run(ctx, wopts); err != nil {
					errCh <- err
					return
				}
				if len(col.entries) != len(chunk) {
					errCh <- fmt.Errorf("worker executed %d pairs, want its %d", len(col.entries), len(chunk))
					return
				}
				for i, e := range col.entries {
					pj, ok := byPair[e.Benchmark+"\x00"+e.Config]
					if !ok {
						errCh <- fmt.Errorf("worker executed %s/%s outside its task", e.Benchmark, e.Config)
						return
					}
					req.Emit(pj, e.Run, col.walls[i])
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

	// The local reference run batches in-process while the executor run
	// defers execution.
	if refSum, distSum := measured(refRep.Summary), measured(distRep.Summary); refSum != distSum {
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
		// Execute just the first pair — through a real single-pair run —
		// then emit it twice and fail.
		pj := req.Pending[0]
		col := &entryCollector{}
		wopts := Options{Iterations: opts.Iterations, Parallelism: 1,
			Pairs: []int{pj.Index}, Progress: col}
		if _, _, err := runSweep(ctx, benchmarkSource("", benchmarks), cfgs, wopts); err != nil {
			return err
		}
		for i := 0; i < 2; i++ {
			req.Emit(pj, col.entries[0].Run, col.walls[0])
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
