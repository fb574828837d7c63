package simserver

import (
	"context"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/jsonl"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simstore"
	"repro/internal/stats"
)

// shutdown stops a server. Shutdown ends no job and writes no record, so
// the state directory it leaves is the one a kill would leave: every durable
// write was fsynced when it happened, and a queued or interrupted job has
// only its submitted record.
func shutdown(t *testing.T, srv *Server) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerRecovery walks a durable server through its whole replay story:
// queued jobs survive a crash and re-queue, terminal jobs come back queryable
// with byte-identical reports, the dedup index / job sequence / per-client
// gauges are all rebuilt, and a second restart restores everything as
// terminal without re-running a single pair.
func TestServerRecovery(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: dir}
	specA := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}
	specB := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"applu"}, Iterations: 10}
	specC := simapi.JobSpec{Experiment: "table5", Benchmarks: []string{"gzip"}, Iterations: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()

	// Life 1: submit three jobs, cancel one, never start a worker, stop.
	srv1, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("fresh state dir reported %d corrupt lines", corrupt)
	}
	a, err := srv1.Submit(specA, "alice")
	if err != nil {
		t.Fatal(err)
	}
	b, err := srv1.Submit(specB, "bob")
	if err != nil {
		t.Fatal(err)
	}
	c1, err := srv1.Submit(specC, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := srv1.Cancel(c1.ID); !ok {
		t.Fatal("cancel of queued job failed")
	}
	shutdown(t, srv1)

	// Life 2: replay. The canceled job restores terminal; A and B re-queue.
	srv2, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("replay reported %d corrupt lines, want 0 (clean stop)", corrupt)
	}
	restored, requeued := srv2.RecoveryStats()
	if restored != 1 || requeued != 2 {
		t.Fatalf("recovery stats = %d restored / %d requeued, want 1/2", restored, requeued)
	}
	infoA, ok := srv2.Job(a.ID)
	if !ok || infoA.State != simapi.StateQueued || infoA.Client != "alice" {
		t.Fatalf("replayed job A = %+v (ok=%v), want queued under alice", infoA, ok)
	}
	if infoC, ok := srv2.Job(c1.ID); !ok || infoC.State != simapi.StateCanceled {
		t.Fatalf("replayed job C = %+v (ok=%v), want canceled", infoC, ok)
	}
	// The dedup index is rebuilt: an identical spec collapses onto the
	// replayed job instead of queuing a duplicate.
	dup, err := srv2.Submit(specA, "alice")
	if err != nil {
		t.Fatal(err)
	}
	if !dup.Deduped || dup.ID != a.ID {
		t.Fatalf("post-replay duplicate = %+v, want dedup onto %s", dup, a.ID)
	}
	// The job sequence continues where it left off — no recycled IDs.
	specD := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"mgrid"}, Iterations: 10}
	d, err := srv2.Submit(specD, "carol")
	if err != nil {
		t.Fatal(err)
	}
	if d.ID != "job-000004" {
		t.Fatalf("post-replay job id = %s, want job-000004 (sequence must survive restart)", d.ID)
	}
	// Per-client gauges rebuilt from the log.
	clients := srv2.Metrics().Clients
	if g := clients["alice"]; g.Queued != 1 || g.Submitted != 2 {
		t.Errorf("alice gauges after replay = %+v, want queued 1 submitted 2", g)
	}
	if g := clients["bob"]; g.Queued != 1 {
		t.Errorf("bob gauges after replay = %+v, want queued 1", g)
	}

	// Run the replayed queue to completion and remember A's report.
	hs2 := httptest.NewServer(srv2.Handler())
	cl2 := simclient.New(hs2.URL, nil)
	srv2.Start()
	for _, id := range []string{a.ID, b.ID, d.ID} {
		final, err := cl2.Wait(ctx, id)
		if err != nil {
			t.Fatalf("wait %s: %v", id, err)
		}
		if final.State != simapi.StateDone {
			t.Fatalf("replayed job %s finished %q (%s)", id, final.State, final.Error)
		}
	}
	csvA, err := cl2.Report(ctx, a.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	hs2.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv2.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	// Life 3: everything is terminal now. No worker ever starts, yet every
	// job is queryable and A's report is served byte-identical from the
	// document in the WAL snapshot.
	srv3, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("second replay reported %d corrupt lines", corrupt)
	}
	restored, requeued = srv3.RecoveryStats()
	if restored != 4 || requeued != 0 {
		t.Fatalf("second recovery = %d restored / %d requeued, want 4/0", restored, requeued)
	}
	hs3 := httptest.NewServer(srv3.Handler())
	cl3 := simclient.New(hs3.URL, nil)
	infoA3, err := cl3.Job(ctx, a.ID)
	if err != nil {
		t.Fatal(err)
	}
	if infoA3.State != simapi.StateDone || infoA3.TotalPairs == 0 {
		t.Fatalf("restored job A = %+v, want done with pair counts", infoA3)
	}
	csvA3, err := cl3.Report(ctx, a.ID, "csv")
	if err != nil {
		t.Fatalf("report of restored job: %v", err)
	}
	if string(csvA3) != string(csvA) {
		t.Errorf("restored CSV differs from the pre-restart render:\n got: %q\nwant: %q", csvA3, csvA)
	}
	// A re-submission of a restored job's spec is a fresh job served entirely
	// from the persisted result cache — no pair ever executes twice.
	srv3.Start()
	re, err := cl3.Submit(ctx, specA)
	if err != nil {
		t.Fatal(err)
	}
	final, err := cl3.Wait(ctx, re.ID)
	if err != nil {
		t.Fatal(err)
	}
	if final.ExecutedPairs != 0 || final.CachedPairs == 0 {
		t.Fatalf("re-run after restart = %+v, want fully cache-served", final)
	}
	hs3.Close()
	s3ctx, s3cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer s3cancel()
	if err := srv3.Shutdown(s3ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerWALCompaction: with the compaction threshold at 1 append, every
// job completion rewrites the log down to its snapshot — two lines per
// retained finished job (submitted, completed) — and the rewritten log still
// replays.
func TestServerWALCompaction(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	srv, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("corrupt = %d", corrupt)
	}
	srv.walCompactEvery = 1
	hs := httptest.NewServer(srv.Handler())
	cl := simclient.New(hs.URL, nil)
	srv.Start()
	info, err := cl.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	// Wait ends with a job lookup, which takes the server lock that the
	// job's end holds through the compaction.
	if n := srv.wal.AppendsSinceCompact(); n != 0 {
		t.Fatalf("AppendsSinceCompact = %d, compaction never ran", n)
	}
	raw, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 2 {
		t.Errorf("compacted WAL has %d lines, want 2 (submitted + completed):\n%s", lines, raw)
	}
	hs.Close()
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}

	// The compacted log replays: the job is back, terminal, report intact.
	srv2, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("compacted log replayed %d corrupt lines", corrupt)
	}
	restored, requeued := srv2.RecoveryStats()
	if restored != 1 || requeued != 0 {
		t.Fatalf("recovery from compacted log = %d/%d, want 1/0", restored, requeued)
	}
	got, ok := srv2.jobs[info.ID]
	if !ok {
		t.Fatal("compacted log lost the job")
	}
	if _, haveCSV := got.rendered("csv"); !haveCSV {
		t.Fatal("restored job has no report")
	}
	sctx2, scancel2 := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel2()
	if err := srv2.Shutdown(sctx2); err != nil {
		t.Fatal(err)
	}
}

// TestReportFormatsSurviveRestart: a finished job serves its report in all
// four formats exactly as the library renders it, and the same job restored
// from the WAL serves the same four texts byte for byte.
func TestReportFormatsSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: dir}
	spec := simapi.JobSpec{Experiment: "fig5cap", Benchmarks: []string{"gzip", "applu"}, Iterations: 10}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	exp, err := experiments.Lookup(spec.Experiment)
	if err != nil {
		t.Fatal(err)
	}
	rep, err := exp.Run(ctx, spec.Options())
	if err != nil {
		t.Fatal(err)
	}
	// reports fetches every format of job id from a server's API.
	var id string
	reports := func(srv *Server) map[string]string {
		hs := httptest.NewServer(srv.Handler())
		defer hs.Close()
		cl := simclient.New(hs.URL, nil)
		out := make(map[string]string)
		for _, format := range stats.Formats() {
			text, err := cl.Report(ctx, id, format)
			if err != nil {
				t.Fatalf("%s report: %v", format, err)
			}
			out[format] = string(text)
		}
		return out
	}
	srv1, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv1.Start()
	info, err := srv1.Submit(spec, "alice")
	if err != nil {
		t.Fatal(err)
	}
	id = info.ID
	hs := httptest.NewServer(srv1.Handler())
	final, err := simclient.New(hs.URL, nil).Wait(ctx, id)
	hs.Close()
	if err != nil || final.State != simapi.StateDone {
		t.Fatalf("job = %+v, %v; want done", final, err)
	}
	live := reports(srv1)
	for format, text := range live {
		want, err := rep.Render(format)
		if err != nil {
			t.Fatal(err)
		}
		if text != want {
			t.Errorf("live %s report differs from the library render:\n got: %q\nwant: %q", format, text, want)
		}
	}
	shutdown(t, srv1)

	srv2, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer shutdown(t, srv2)
	if restored, _ := srv2.RecoveryStats(); restored != 1 {
		t.Fatalf("restored %d jobs, want 1", restored)
	}
	for format, text := range reports(srv2) {
		if text != live[format] {
			t.Errorf("restored %s report differs from the live one:\n got: %q\nwant: %q", format, text, live[format])
		}
	}
}

// TestServerRecoveryTolerantOfCorruptTail: a torn WAL tail (half an append)
// is skipped with a count, and every record before it replays.
func TestServerRecoveryTolerantOfCorruptTail(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: dir}
	srv1, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := srv1.Submit(simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	shutdown(t, srv1)

	// Tear the tail the way a crash mid-append would.
	walPath := filepath.Join(dir, "wal.jsonl")
	f, err := os.OpenFile(walPath, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"submitted","job_id":"job-000002","se`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	srv2, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 1 {
		t.Fatalf("corrupt = %d, want 1 (the torn tail)", corrupt)
	}
	if _, requeued := srv2.RecoveryStats(); requeued != 1 {
		t.Fatalf("requeued = %d, want 1", requeued)
	}
	if _, ok := srv2.Job(a.ID); !ok {
		t.Fatal("durable record before the torn tail did not replay")
	}
	sctx, scancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer scancel()
	if err := srv2.Shutdown(sctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerRecoveryLargeCompletedRecord: a completed record of the older
// format carries the report rendered in every format, so a big sweep's
// record passes 1 MiB (about 815 bytes per row). Replay must restore such a
// job, reports and all, instead of failing the restart on the record's
// length.
func TestServerRecoveryLargeCompletedRecord(t *testing.T) {
	dir := t.TempDir()
	wal, _, _, err := simstore.Open(filepath.Join(dir, "wal.jsonl"), jsonl.Hooks{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	spec := simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"}, Iterations: 10}
	now := time.Now().UTC()
	csv := "benchmark,config,cycles\n" + strings.Repeat("gzip,nosq-delay,12345\n", 64<<10)
	for _, rec := range []simstore.Record{
		{Type: simstore.RecSubmitted, Time: now, JobID: "job-000001", Seq: 1, Client: "alice", SpecHash: "h", Spec: &spec},
		{Type: simstore.RecCompleted, Time: now, JobID: "job-000001", State: simapi.StateDone,
			Pairs: &simstore.PairCounts{Total: 1, Executed: 1}, Reports: map[string]string{"csv": csv}},
	} {
		if err := wal.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := wal.Close(); err != nil {
		t.Fatal(err)
	}

	srv, corrupt, err := New(Config{Workers: 1, CodeRev: "test-rev", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()
	if corrupt != 0 {
		t.Fatalf("corrupt = %d, want 0", corrupt)
	}
	if restored, requeued := srv.RecoveryStats(); restored != 1 || requeued != 0 {
		t.Fatalf("recovery = %d restored / %d requeued, want 1/0", restored, requeued)
	}
	j, ok := srv.jobs["job-000001"]
	if !ok {
		t.Fatal("large completed job did not replay")
	}
	if got, _ := j.rendered("csv"); got != csv {
		t.Fatalf("restored csv report is %d bytes, want %d", len(got), len(csv))
	}
}

// TestFinishedJobKeepsStartAcrossRestarts: every restart compacts the WAL to
// a snapshot, so a finished job must come back from the second restart — a
// replay of a snapshot, not of the original log — with the same start time
// and running event as from the first.
func TestFinishedJobKeepsStartAcrossRestarts(t *testing.T) {
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: t.TempDir()}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	info, err := srv.Submit(simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}, "")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	done, err := simclient.New(hs.URL, nil).Wait(ctx, info.ID)
	hs.Close()
	if err != nil {
		t.Fatal(err)
	}
	if done.State != simapi.StateDone || done.Started.IsZero() {
		t.Fatalf("job finished as %+v, want done with a start time", done)
	}
	shutdown(t, srv)

	for restart := 1; restart <= 2; restart++ {
		srv, _, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got, ok := srv.Job(info.ID)
		if !ok || got.State != simapi.StateDone || !got.Started.Equal(done.Started) {
			t.Errorf("restart %d: job = %+v (ok=%v), want done, started at %v", restart, got, ok, done.Started)
		}
		var running bool
		evs, _, _ := srv.jobs[info.ID].eventsSince(0)
		for _, ev := range evs {
			running = running || ev.State == simapi.StateRunning && ev.Time.Equal(done.Started)
		}
		if !running {
			t.Errorf("restart %d: event log lost the running event: %+v", restart, evs)
		}
		shutdown(t, srv)
	}
}

// TestServerServesRenderedReportsFromOlderWAL: terminal records once kept a
// done job's report as four rendered texts instead of its document, and the
// job's start time in a started record of its own.
// testdata/wal-rendered-reports.jsonl is such a log, as a server of that
// format wrote it for a one-benchmark sweep. A server opened over a copy
// serves each format byte for byte from those texts and keeps the job's
// start time, and still does after its startup compaction has rewritten the
// log to the job's two records.
func TestServerServesRenderedReportsFromOlderWAL(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "wal-rendered-reports.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	var id string
	var started time.Time
	var want map[string]string
	for _, line := range strings.Split(strings.TrimSpace(string(raw)), "\n") {
		rec, err := simstore.DecodeRecord([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		switch rec.Type {
		case simstore.RecStarted:
			started = rec.Time
		case simstore.RecCompleted:
			id, want = rec.JobID, rec.Reports
		}
	}
	if started.IsZero() {
		t.Fatal("the log has no started record")
	}
	if len(want) != len(stats.Formats()) {
		t.Fatalf("the log's completed record has %d rendered texts, want one per format", len(want))
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "wal.jsonl"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for restart := 1; restart <= 2; restart++ {
		srv, corrupt, err := New(Config{Workers: 1, CodeRev: "test-rev", StateDir: dir})
		if err != nil {
			t.Fatal(err)
		}
		if restored, requeued := srv.RecoveryStats(); corrupt != 0 || restored != 1 || requeued != 0 {
			t.Fatalf("restart %d: %d corrupt, %d restored, %d re-queued; want 0, 1, 0", restart, corrupt, restored, requeued)
		}
		if got, _ := srv.Job(id); !got.Started.Equal(started) {
			t.Errorf("restart %d: job started at %v, want %v", restart, got.Started, started)
		}
		compacted, err := os.ReadFile(filepath.Join(dir, "wal.jsonl"))
		if err != nil {
			t.Fatal(err)
		}
		if lines := strings.Count(string(compacted), "\n"); lines != 2 {
			t.Errorf("restart %d: compacted WAL has %d lines, want 2 (submitted + completed)", restart, lines)
		}
		hs := httptest.NewServer(srv.Handler())
		cl := simclient.New(hs.URL, nil)
		for _, format := range stats.Formats() {
			got, err := cl.Report(ctx, id, format)
			if err != nil {
				t.Fatalf("restart %d: %s report: %v", restart, format, err)
			}
			if string(got) != want[format] {
				t.Errorf("restart %d: %s report differs from the stored text:\n got: %q\nwant: %q", restart, format, got, want[format])
			}
		}
		hs.Close()
		if err := srv.Shutdown(ctx); err != nil {
			t.Fatal(err)
		}
	}
}

// olderTaskRecordsWAL is a log as a server that also logged shard tasks
// wrote it: a job leased to a two-worker fleet, which crashed before the
// job finished.
const olderTaskRecordsWAL = `{"type":"submitted","time":"2026-10-19T16:29:30.452069289Z","job_id":"job-000001","seq":1,"client":"tester","spec_hash":"df21b7041ce3919ddbd2ba536a58fb8245c3d78c0fcb8249967ab0a81dc00c84","spec":{"experiment":"sweep","source":{"kind":"benchmark","benchmarks":["gzip"]},"iterations":40}}
{"type":"started","time":"2026-10-19T16:29:30.452661648Z","job_id":"job-000001"}
{"type":"lease","time":"2026-10-19T16:29:30.454120004Z","job_id":"job-000001","task_id":"task-000001","worker_id":"worker-000001"}
{"type":"lease","time":"2026-10-19T16:29:30.454388511Z","job_id":"job-000001","task_id":"task-000002","worker_id":"worker-000002"}
{"type":"task-done","time":"2026-10-19T16:29:30.461907322Z","job_id":"job-000001","task_id":"task-000001","worker_id":"worker-000001"}
`

// TestServerIgnoresTaskRecordsFromOlderWAL: the log no longer records shard
// tasks, but a server opened over an older log that does decodes those
// lines and ignores them: they count neither as corrupt nor as jobs, the
// interrupted job re-queues, and the startup compaction drops them.
func TestServerIgnoresTaskRecordsFromOlderWAL(t *testing.T) {
	dir := t.TempDir()
	walPath := filepath.Join(dir, "wal.jsonl")
	if err := os.WriteFile(walPath, []byte(olderTaskRecordsWAL), 0o644); err != nil {
		t.Fatal(err)
	}
	srv, corrupt, err := New(Config{Workers: 1, CodeRev: "test-rev", StateDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	if restored, requeued := srv.RecoveryStats(); corrupt != 0 || restored != 0 || requeued != 1 || len(srv.jobs) != 1 {
		t.Fatalf("%d corrupt, %d restored, %d re-queued, %d jobs; want 0, 0, 1, 1", corrupt, restored, requeued, len(srv.jobs))
	}
	if _, ok := srv.Job("job-000001"); !ok {
		t.Fatal("the interrupted job did not replay")
	}
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if lines := strings.Count(string(raw), "\n"); lines != 1 || strings.Contains(string(raw), "task_id") {
		t.Errorf("compacted WAL has %d lines, want only the job's submitted record:\n%s", lines, raw)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}

// TestServerRequeuesJobWhoseDocumentDoesNotDecode: a completed record whose
// report document does not decode is a corrupt line. Replay skips it, so the
// job re-queues as if it had never finished, and its re-run serves every
// pair from the result cache.
func TestServerRequeuesJobWhoseDocumentDoesNotDecode(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{Workers: 1, CodeRev: "test-rev", StateDir: dir}
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	info, err := srv.Submit(simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10}, "alice")
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv.Handler())
	first, err := simclient.New(hs.URL, nil).Wait(ctx, info.ID)
	hs.Close()
	if err != nil || first.State != simapi.StateDone {
		t.Fatalf("job = %+v, %v; want done", first, err)
	}
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}

	walPath := filepath.Join(dir, "wal.jsonl")
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	mangled := strings.Replace(string(raw), `"f64:`, `"f65:`, 1)
	if mangled == string(raw) {
		t.Fatalf("the WAL has no stored float cell to mangle:\n%s", raw)
	}
	if err := os.WriteFile(walPath, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}

	srv2, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored, requeued := srv2.RecoveryStats(); corrupt != 1 || restored != 0 || requeued != 1 {
		t.Fatalf("%d corrupt, %d restored, %d re-queued; want 1, 0, 1", corrupt, restored, requeued)
	}
	srv2.Start()
	hs2 := httptest.NewServer(srv2.Handler())
	defer hs2.Close()
	again, err := simclient.New(hs2.URL, nil).Wait(ctx, info.ID)
	if err != nil || again.State != simapi.StateDone {
		t.Fatalf("re-queued job = %+v, %v; want done", again, err)
	}
	if again.CachedPairs != first.TotalPairs || again.ExecutedPairs != 0 {
		t.Fatalf("re-run served %d of %d pairs from the cache and executed %d; want all cached",
			again.CachedPairs, first.TotalPairs, again.ExecutedPairs)
	}
	if err := srv2.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
}
