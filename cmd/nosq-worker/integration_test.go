//go:build integration

package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/workload"
)

// startServer boots a real nosq-server binary on a random port and returns
// its base URL plus a stop function (SIGTERM, wait).
func startServer(t *testing.T, bin string, args ...string) (baseURL string, stop func()) {
	t.Helper()
	return startServerAt(t, "", bin, args...)
}

// startServerAt is startServer with an explicit working directory for the
// server process ("" = inherit). The corpus experiment resolves its committed
// corpus relative to the process working directory, so corpus jobs need the
// server started from the repository root.
func startServerAt(t *testing.T, dir, bin string, args ...string) (baseURL string, stop func()) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	srv.Dir = dir
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan error, 1)
	go func() { exited <- srv.Wait() }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		srv.Process.Signal(syscall.SIGTERM)
		select {
		case err := <-exited:
			if err != nil {
				t.Errorf("server exited uncleanly: %v\nstderr:\n%s", err, stderr.String())
			}
		case <-time.After(30 * time.Second):
			srv.Process.Kill()
			t.Error("server did not exit on SIGTERM")
		}
	}
	t.Cleanup(stop)

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line on stdout; stderr:\n%s", stderr.String())
	}
	line := sc.Text()
	i := strings.Index(line, "http://")
	if i < 0 {
		t.Fatalf("unexpected listen line %q", line)
	}
	return strings.TrimSpace(line[i:]), stop
}

// startServerProc boots a nosq-server binary like startServer but returns
// the process handle so the test can SIGKILL it mid-run. Its stop function
// tolerates the process being gone already and does not treat a killed
// server as a failure — crash tests end their victims on purpose.
func startServerProc(t *testing.T, bin string, args ...string) (baseURL string, proc *exec.Cmd, stop func()) {
	t.Helper()
	srv := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	var stderr bytes.Buffer
	srv.Stderr = &stderr
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { srv.Wait(); close(exited) }()
	stopped := false
	stop = func() {
		if stopped {
			return
		}
		stopped = true
		select {
		case <-exited: // already dead (SIGKILLed by the test)
			return
		default:
		}
		srv.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(30 * time.Second):
			srv.Process.Kill()
			t.Errorf("server did not exit on SIGTERM; stderr:\n%s", stderr.String())
		}
	}
	t.Cleanup(stop)

	sc := bufio.NewScanner(stdout)
	if !sc.Scan() {
		t.Fatalf("no listen line on stdout; stderr:\n%s", stderr.String())
	}
	line := sc.Text()
	i := strings.Index(line, "http://")
	if i < 0 {
		t.Fatalf("unexpected listen line %q", line)
	}
	return strings.TrimSpace(line[i:]), srv, stop
}

// startWorker boots a nosq-worker binary pointed at the coordinator and
// returns its process (for killing) plus a graceful stop function.
func startWorker(t *testing.T, bin, serverURL, name string, extra ...string) (*exec.Cmd, func()) {
	t.Helper()
	return startWorkerAt(t, "", bin, serverURL, name, extra...)
}

// startWorkerAt is startWorker with an explicit working directory ("" =
// inherit); corpus-experiment workers must run from the repository root so
// they resolve the same committed corpus as the coordinator.
func startWorkerAt(t *testing.T, dir, bin, serverURL, name string, extra ...string) (*exec.Cmd, func()) {
	t.Helper()
	args := append([]string{"-server", serverURL, "-name", name, "-parallel", "2",
		"-poll-interval", "25ms"}, extra...)
	w := exec.Command(bin, args...)
	w.Dir = dir
	var stderr bytes.Buffer
	w.Stderr = &stderr
	if err := w.Start(); err != nil {
		t.Fatal(err)
	}
	exited := make(chan struct{})
	go func() { w.Wait(); close(exited) }()
	stopped := false
	stopFn := func() {
		if stopped {
			return
		}
		stopped = true
		w.Process.Signal(syscall.SIGTERM)
		select {
		case <-exited:
		case <-time.After(15 * time.Second):
			w.Process.Kill()
			t.Errorf("worker %s did not exit on SIGTERM; stderr:\n%s", name, stderr.String())
		}
	}
	t.Cleanup(func() {
		select {
		case <-exited: // already gone (killed by the test)
		default:
			stopFn()
		}
	})
	return w, stopFn
}

func waitRemoteWorkers(t *testing.T, c *simclient.Client, n int) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	for {
		m, err := c.Metrics(ctx)
		if err == nil && m.RemoteWorkers == n {
			return
		}
		select {
		case <-ctx.Done():
			t.Fatalf("fleet never reached %d workers", n)
		case <-time.After(50 * time.Millisecond):
		}
	}
}

// TestDistributedIntegration is the acceptance test of distributed sweep
// execution with real binaries: one coordinator plus two nosq-worker
// processes run a fig2 grid, one worker is SIGKILLed mid-task to force a
// lease-expiry re-queue, and the merged report must still be byte-identical
// to a single-node run of the same job.
//
// Run with: go test -tags integration ./cmd/nosq-worker
func TestDistributedIntegration(t *testing.T) {
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	for bin, pkg := range map[string]string{serverBin: "../nosq-server", workerBin: "."} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}

	// -version must answer without contacting any coordinator.
	if ver, err := exec.Command(workerBin, "-version").Output(); err != nil {
		t.Fatalf("-version: %v", err)
	} else if !strings.HasPrefix(string(ver), "nosq-worker revision ") {
		t.Fatalf("-version output %q", ver)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip", "applu"}, Iterations: 40}

	// Reference: the same job on a worker-less single node.
	refURL, refStop := startServer(t, serverBin, "-workers", "1")
	refC := simclient.New(refURL, nil)
	refInfo, err := refC.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if refInfo, err = refC.Wait(ctx, refInfo.ID); err != nil {
		t.Fatal(err)
	}
	if refInfo.State != simapi.StateDone || refInfo.ExecutedPairs == 0 {
		t.Fatalf("reference job = %+v", refInfo)
	}
	refJSON, err := refC.Report(ctx, refInfo.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	refCSV, err := refC.Report(ctx, refInfo.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	refStop()

	// Distributed: coordinator with a short lease TTL plus two throttled
	// workers (the per-pair delay keeps both tasks in flight long enough to
	// kill one worker mid-task deterministically).
	coordURL, _ := startServer(t, serverBin, "-workers", "1", "-lease-ttl", "1500ms")
	c := simclient.New(coordURL, nil)
	victim, _ := startWorker(t, workerBin, coordURL, "victim", "-pair-delay", "250ms")
	startWorker(t, workerBin, coordURL, "survivor", "-pair-delay", "250ms")
	waitRemoteWorkers(t, c, 2)

	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	// SIGKILL the victim as soon as the first pair lands: with 10 pairs split
	// across two ~250ms/pair tasks, both workers are still mid-task, so the
	// victim dies holding a lease with undelivered pairs.
	sawPair := make(chan struct{})
	go c.StreamEvents(ctx, info.ID, 0, func(ev simapi.Event) error {
		if ev.Type == simapi.EventPair {
			close(sawPair)
			return simclient.ErrStopStreaming
		}
		return nil
	})
	select {
	case <-sawPair:
	case <-time.After(2 * time.Minute):
		t.Fatal("no pair event before timeout")
	}
	if err := victim.Process.Kill(); err != nil {
		t.Fatal(err)
	}

	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("distributed job = %+v, want done despite the killed worker", info)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.TasksRequeued == 0 {
		t.Error("killing a worker mid-task did not re-queue its leased shard")
	}
	if m.RemotePairs != uint64(info.ExecutedPairs) {
		t.Errorf("remote pairs = %d, want every executed pair (%d)", m.RemotePairs, info.ExecutedPairs)
	}

	distJSON, err := c.Report(ctx, info.ID, "json")
	if err != nil {
		t.Fatal(err)
	}
	distCSV, err := c.Report(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refJSON, distJSON) {
		t.Errorf("JSON report differs from single-node run:\n--- single-node ---\n%s\n--- distributed ---\n%s",
			refJSON, distJSON)
	}
	if !bytes.Equal(refCSV, distCSV) {
		t.Errorf("CSV report differs from single-node run:\n--- single-node ---\n%s\n--- distributed ---\n%s",
			refCSV, distCSV)
	}
}

// TestScenarioSpecFileEndToEnd is the acceptance test of the workload
// scenario subsystem: one spec file runs through every execution surface —
// the nosq-experiments CLI, a single-node server job, and a distributed
// fleet (coordinator + two real workers) — and all three reports must be
// byte-identical in both machine formats.
//
// Run with: go test -tags integration ./cmd/nosq-worker
func TestScenarioSpecFileEndToEnd(t *testing.T) {
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	expBin := filepath.Join(dir, "nosq-experiments")
	for bin, pkg := range map[string]string{serverBin: "../nosq-server", workerBin: ".", expBin: "../nosq-experiments"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	specPath := filepath.Join(dir, "scenario.json")
	specJSON := []byte(`{
		"name": "it/phase-flip",
		"pattern": "phase-flip",
		"iterations": 64
	}`)
	if err := os.WriteFile(specPath, specJSON, 0o644); err != nil {
		t.Fatal(err)
	}
	configs := "nosq-delay,assoc-sq-storesets,perfect-smb"

	// Surface 1: the CLI, straight from the spec file.
	cliJSON := filepath.Join(dir, "cli.json")
	cliCSV := filepath.Join(dir, "cli.csv")
	for out, format := range map[string]string{cliJSON: "json", cliCSV: "csv"} {
		cmd := exec.Command(expBin, "-scenario", specPath, "-configs", configs, "-format", format, "-out", out)
		if o, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("CLI scenario run (%s): %v\n%s", format, err, o)
		}
	}
	wantJSON, err := os.ReadFile(cliJSON)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(cliCSV)
	if err != nil {
		t.Fatal(err)
	}

	// The job spec carries the same scenario inline, decoded from the same
	// file the CLI read.
	scn, err := workload.ParseScenario(specJSON)
	if err != nil {
		t.Fatal(err)
	}
	spec := simapi.JobSpec{
		Experiment: "scenario",
		Scenario:   &scn,
		Configs:    strings.Split(configs, ","),
	}

	fetch := func(c *simclient.Client, id string) (jsonRep, csvRep []byte) {
		t.Helper()
		j, err := c.Report(ctx, id, "json")
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Report(ctx, id, "csv")
		if err != nil {
			t.Fatal(err)
		}
		return j, v
	}

	// Surface 2: a single-node server job.
	soloURL, soloStop := startServer(t, serverBin, "-workers", "1")
	soloC := simclient.New(soloURL, nil)
	soloInfo, err := soloC.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if soloInfo, err = soloC.Wait(ctx, soloInfo.ID); err != nil {
		t.Fatal(err)
	}
	if soloInfo.State != simapi.StateDone {
		t.Fatalf("single-node scenario job = %+v", soloInfo)
	}
	soloJSON, soloCSV := fetch(soloC, soloInfo.ID)
	soloStop()

	// Surface 3: a distributed fleet.
	coordURL, _ := startServer(t, serverBin, "-workers", "1")
	c := simclient.New(coordURL, nil)
	startWorker(t, workerBin, coordURL, "scn-a")
	startWorker(t, workerBin, coordURL, "scn-b")
	waitRemoteWorkers(t, c, 2)
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("distributed scenario job = %+v", info)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RemotePairs == 0 {
		t.Error("no pairs executed remotely; the fleet was bypassed")
	}
	distJSON, distCSV := fetch(c, info.ID)

	for _, cmp := range []struct {
		surface    string
		gotJ, gotC []byte
	}{
		{"single-node server", soloJSON, soloCSV},
		{"distributed fleet", distJSON, distCSV},
	} {
		if !bytes.Equal(wantJSON, cmp.gotJ) {
			t.Errorf("%s JSON report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantJSON, cmp.surface, cmp.gotJ)
		}
		if !bytes.Equal(wantCSV, cmp.gotC) {
			t.Errorf("%s CSV report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantCSV, cmp.surface, cmp.gotC)
		}
	}
}

// TestCoordinatorCrashRecovery is the acceptance test of the durable
// simulation service: a coordinator with -state-dir is stopped mid-sweep
// with two live workers attached and two jobs in flight (a running fig2 grid
// and a queued inline-scenario job), once by SIGKILL and once by SIGTERM. A
// SIGTERM ends no job, so both stops leave the same kind of log. A restarted
// server on the same port must replay its WAL, re-queue both jobs under their
// original IDs, resume every pair the stopped run had already persisted (no
// pair executes twice), and produce reports byte-identical to an
// uninterrupted run.
//
// Run with: go test -tags integration ./cmd/nosq-worker -run TestCoordinatorCrashRecovery
func TestCoordinatorCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	for bin, pkg := range map[string]string{serverBin: "../nosq-server", workerBin: "."} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()

	sweepSpec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip", "applu"}, Iterations: 40}
	scn, err := workload.ParseScenario([]byte(`{"name":"it/crash-recovery","pattern":"phase-flip","iterations":64}`))
	if err != nil {
		t.Fatal(err)
	}
	scenarioSpec := simapi.JobSpec{
		Experiment: "scenario",
		Scenario:   &scn,
		Configs:    []string{"nosq-delay", "assoc-sq-storesets"},
	}

	// Reference: both jobs on an uninterrupted worker-less server.
	refURL, refStop := startServer(t, serverBin, "-workers", "1")
	refC := simclient.New(refURL, nil)
	refReports := map[string][2][]byte{} // experiment → {csv, json}
	for name, spec := range map[string]simapi.JobSpec{"sweep": sweepSpec, "scenario": scenarioSpec} {
		info, err := refC.Submit(ctx, spec)
		if err != nil {
			t.Fatal(err)
		}
		if info, err = refC.Wait(ctx, info.ID); err != nil || info.State != simapi.StateDone {
			t.Fatalf("reference %s job = %+v, %v", name, info, err)
		}
		csv, err := refC.Report(ctx, info.ID, "csv")
		if err != nil {
			t.Fatal(err)
		}
		jsonRep, err := refC.Report(ctx, info.ID, "json")
		if err != nil {
			t.Fatal(err)
		}
		refReports[name] = [2][]byte{csv, jsonRep}
	}
	refStop()

	for _, signal := range []string{"SIGKILL", "SIGTERM"} {
		t.Run(signal, func(t *testing.T) {
			testCoordinatorRecovery(t, ctx, serverBin, workerBin, signal == "SIGKILL", sweepSpec, scenarioSpec, refReports)
		})
	}
}

// testCoordinatorRecovery stops a durable coordinator mid-sweep, by SIGKILL
// if kill is set and by SIGTERM otherwise, and checks the restarted server's
// replay against the uninterrupted reports.
func testCoordinatorRecovery(t *testing.T, ctx context.Context, serverBin, workerBin string, kill bool,
	sweepSpec, scenarioSpec simapi.JobSpec, refReports map[string][2][]byte) {
	// The durable coordinator, plus two throttled workers so the sweep is
	// still mid-flight when the stop lands.
	stateDir := filepath.Join(t.TempDir(), "state")
	durableArgs := []string{"-workers", "1", "-lease-ttl", "1500ms", "-state-dir", stateDir}
	coordURL, coord, coordStop := startServerProc(t, serverBin, durableArgs...)
	port := coordURL[strings.LastIndex(coordURL, ":")+1:]
	c := simclient.New(coordURL, nil).WithClientID("crash-test")
	startWorker(t, workerBin, coordURL, "w1", "-pair-delay", "250ms")
	startWorker(t, workerBin, coordURL, "w2", "-pair-delay", "250ms")
	waitRemoteWorkers(t, c, 2)

	sweepInfo, err := c.Submit(ctx, sweepSpec)
	if err != nil {
		t.Fatal(err)
	}
	scnInfo, err := c.Submit(ctx, scenarioSpec)
	if err != nil {
		t.Fatal(err)
	}
	// Stop the coordinator once the first pair lands: the sweep is running
	// (pairs delivered, pairs in flight on both workers), the scenario job is
	// still queued — replay must handle both shapes.
	sawPair := make(chan struct{})
	go c.StreamEvents(ctx, sweepInfo.ID, 0, func(ev simapi.Event) error {
		if ev.Type == simapi.EventPair {
			close(sawPair)
			return simclient.ErrStopStreaming
		}
		return nil
	})
	select {
	case <-sawPair:
	case <-time.After(2 * time.Minute):
		t.Fatal("no pair event before timeout")
	}
	if kill {
		if err := coord.Process.Kill(); err != nil {
			t.Fatal(err)
		}
	} else {
		coordStop() // SIGTERM, then wait for the exit
	}

	// What the stopped run made durable: every parseable result-cache line.
	// Nothing can append after the stop (only the server writes the cache),
	// so this is exactly the set of pairs the restarted run must resume.
	raw, err := os.ReadFile(filepath.Join(stateDir, "results.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	nPre := 0
	for _, line := range bytes.Split(raw, []byte("\n")) {
		var entry map[string]interface{}
		if len(bytes.TrimSpace(line)) > 0 && json.Unmarshal(line, &entry) == nil {
			nPre++
		}
	}
	if nPre == 0 {
		t.Fatal("no durable pairs before the stop; it landed too early to prove resumption")
	}

	// Restart on the same port (the helper's default -addr is overridden by
	// ours — last flag wins) so the surviving workers re-register against it.
	restartURL, _, restartStop := startServerProc(t, serverBin,
		append(append([]string{}, durableArgs...), "-addr", "127.0.0.1:"+port)...)
	if restartURL != coordURL {
		t.Fatalf("restarted server on %s, want the original %s", restartURL, coordURL)
	}
	c2 := simclient.New(restartURL, nil).WithClientID("crash-test")

	// Both jobs survive under their original IDs and run to completion.
	finalSweep, err := c2.Wait(ctx, sweepInfo.ID)
	if err != nil {
		t.Fatalf("waiting for replayed sweep job: %v", err)
	}
	finalScn, err := c2.Wait(ctx, scnInfo.ID)
	if err != nil {
		t.Fatalf("waiting for replayed scenario job: %v", err)
	}
	if finalSweep.State != simapi.StateDone || finalScn.State != simapi.StateDone {
		t.Fatalf("replayed jobs finished %q / %q, want done", finalSweep.State, finalScn.State)
	}
	if finalSweep.Client != "crash-test" {
		t.Errorf("replayed job lost its client identity: %q", finalSweep.Client)
	}

	// No job lost, no pair executed twice: the resumed sweep serves exactly
	// the pre-stop pairs from the cache and executes only the remainder; the
	// never-started scenario job executes everything.
	if finalSweep.CachedPairs != nPre {
		t.Errorf("resumed sweep cached %d pairs, want the %d persisted before the stop",
			finalSweep.CachedPairs, nPre)
	}
	if got := finalSweep.ExecutedPairs; got != finalSweep.TotalPairs-nPre {
		t.Errorf("resumed sweep executed %d pairs, want %d (total %d − %d already durable)",
			got, finalSweep.TotalPairs-nPre, finalSweep.TotalPairs, nPre)
	}
	if finalScn.CachedPairs != 0 || finalScn.ExecutedPairs != finalScn.TotalPairs {
		t.Errorf("queued-at-stop scenario job = %+v, want fully executed after replay", finalScn)
	}

	// Reports byte-identical to the uninterrupted run: CSV exactly for both
	// jobs; JSON's report section exactly (the meta section legitimately
	// differs for the resumed job — executed vs resumed pair counts).
	for name, info := range map[string]simapi.JobInfo{"sweep": finalSweep, "scenario": finalScn} {
		gotCSV, err := c2.Report(ctx, info.ID, "csv")
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(gotCSV, refReports[name][0]) {
			t.Errorf("%s CSV differs from the uninterrupted run:\n--- uninterrupted ---\n%s\n--- recovered ---\n%s",
				name, refReports[name][0], gotCSV)
		}
		gotJSON, err := c2.Report(ctx, info.ID, "json")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(jsonSection(t, gotJSON, "report"), jsonSection(t, refReports[name][1], "report")) {
			t.Errorf("%s JSON report section differs from the uninterrupted run:\n--- uninterrupted ---\n%s\n--- recovered ---\n%s",
				name, refReports[name][1], gotJSON)
		}
	}

	// A clean restart of the same state dir restores both finished jobs and
	// still serves their reports without re-running anything.
	restartStop()
	_, _, finalStop := startServerProc(t, serverBin,
		append(append([]string{}, durableArgs...), "-addr", "127.0.0.1:"+port)...)
	defer finalStop()
	info, err := c2.Job(ctx, sweepInfo.ID)
	if err != nil || info.State != simapi.StateDone {
		t.Fatalf("sweep job after second restart = %+v, %v", info, err)
	}
	gotCSV, err := c2.Report(ctx, sweepInfo.ID, "csv")
	if err != nil {
		t.Fatalf("report after second restart: %v", err)
	}
	if !bytes.Equal(gotCSV, refReports["sweep"][0]) {
		t.Error("restored report differs from the uninterrupted run")
	}
}

func jsonSection(t *testing.T, doc []byte, key string) interface{} {
	t.Helper()
	var m map[string]interface{}
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("bad JSON document: %v", err)
	}
	return m[key]
}

// TestFlagValidationIntegration: both binaries must exit non-zero with a
// clear message on non-positive -workers/-poll-interval instead of hanging
// or spinning.
func TestFlagValidationIntegration(t *testing.T) {
	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	for bin, pkg := range map[string]string{serverBin: "../nosq-server", workerBin: "."} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	cases := []struct {
		bin  string
		args []string
		want string
	}{
		{serverBin, []string{"-workers", "0"}, "-workers must be positive"},
		{serverBin, []string{"-workers", "-3"}, "-workers must be positive"},
		{serverBin, []string{"-poll-interval", "0s"}, "-poll-interval must be positive"},
		{workerBin, []string{"-server", "http://127.0.0.1:1", "-poll-interval", "0s"}, "-poll-interval must be positive"},
		{workerBin, []string{"-server", "http://127.0.0.1:1", "-parallel", "0"}, "-parallel must be positive"},
		{workerBin, []string{}, "-server is required"},
	}
	for _, tc := range cases {
		cmd := exec.Command(tc.bin, tc.args...)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Errorf("%s %v: exited 0, want failure", filepath.Base(tc.bin), tc.args)
			continue
		}
		if !strings.Contains(string(out), tc.want) {
			t.Errorf("%s %v: output %q does not mention %q", filepath.Base(tc.bin), tc.args, out, tc.want)
		}
	}
}

// TestCorpusEntryEndToEnd is the acceptance test of the committed
// pathological-scenario corpus (bench/corpus, discovered by nosq-tune): the
// corpus experiment replays every committed entry through all three
// execution surfaces — the nosq-experiments CLI, a single-node server job,
// and a distributed fleet — and the reports must be byte-identical in both
// machine formats. Every process runs from the repository root, the
// documented requirement for corpus jobs (the corpus directory is resolved
// against each node's own checkout, never shipped over the wire).
//
// Run with: go test -tags integration ./cmd/nosq-worker -run TestCorpusEntryEndToEnd
func TestCorpusEntryEndToEnd(t *testing.T) {
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(repoRoot, "bench", "corpus")); err != nil {
		t.Fatalf("committed corpus missing: %v", err)
	}

	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	expBin := filepath.Join(dir, "nosq-experiments")
	for bin, pkg := range map[string]string{serverBin: "../nosq-server", workerBin: ".", expBin: "../nosq-experiments"} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	configs := "nosq-delay,perfect-smb"

	// Surface 1: the CLI, from the repository root with the default corpus
	// directory — exactly how CI's nightly regression run invokes it.
	cliJSON := filepath.Join(dir, "cli.json")
	cliCSV := filepath.Join(dir, "cli.csv")
	for out, format := range map[string]string{cliJSON: "json", cliCSV: "csv"} {
		cmd := exec.Command(expBin, "-exp", "corpus", "-configs", configs, "-format", format, "-out", out)
		cmd.Dir = repoRoot
		if o, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("CLI corpus run (%s): %v\n%s", format, err, o)
		}
	}
	wantJSON, err := os.ReadFile(cliJSON)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(cliCSV)
	if err != nil {
		t.Fatal(err)
	}

	spec := simapi.JobSpec{Experiment: "corpus", Configs: strings.Split(configs, ",")}
	fetch := func(c *simclient.Client, id string) (jsonRep, csvRep []byte) {
		t.Helper()
		j, err := c.Report(ctx, id, "json")
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Report(ctx, id, "csv")
		if err != nil {
			t.Fatal(err)
		}
		return j, v
	}

	// Surface 2: a single-node server job, server running from the repo root.
	soloURL, soloStop := startServerAt(t, repoRoot, serverBin, "-workers", "1")
	soloC := simclient.New(soloURL, nil)
	soloInfo, err := soloC.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if soloInfo, err = soloC.Wait(ctx, soloInfo.ID); err != nil {
		t.Fatal(err)
	}
	if soloInfo.State != simapi.StateDone {
		t.Fatalf("single-node corpus job = %+v", soloInfo)
	}
	soloJSON, soloCSV := fetch(soloC, soloInfo.ID)
	soloStop()

	// Surface 3: a distributed fleet, every node running from the repo root.
	coordURL, _ := startServerAt(t, repoRoot, serverBin, "-workers", "1")
	c := simclient.New(coordURL, nil)
	startWorkerAt(t, repoRoot, workerBin, coordURL, "corpus-a")
	startWorkerAt(t, repoRoot, workerBin, coordURL, "corpus-b")
	waitRemoteWorkers(t, c, 2)
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("distributed corpus job = %+v", info)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RemotePairs == 0 {
		t.Error("no pairs executed remotely; the fleet was bypassed")
	}
	distJSON, distCSV := fetch(c, info.ID)

	for _, cmp := range []struct {
		surface    string
		gotJ, gotC []byte
	}{
		{"single-node server", soloJSON, soloCSV},
		{"distributed fleet", distJSON, distCSV},
	} {
		if !bytes.Equal(wantJSON, cmp.gotJ) {
			t.Errorf("%s JSON report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantJSON, cmp.surface, cmp.gotJ)
		}
		if !bytes.Equal(wantCSV, cmp.gotC) {
			t.Errorf("%s CSV report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantCSV, cmp.surface, cmp.gotC)
		}
	}
}

// TestTraceCorpusEndToEnd is the acceptance test of the committed trace
// corpus (bench/traces, recorded by nosq-trace): the trace experiment
// replays every committed trace through all three execution surfaces — the
// nosq-experiments CLI, a single-node server job, and a distributed fleet —
// and the reports must be byte-identical in both machine formats. A
// re-submission of the identical spec must be served entirely from the
// result cache. Like corpus jobs, every process runs from the repository
// root: the trace directory is resolved against each node's own checkout,
// never shipped over the wire.
//
// Run with: go test -tags integration ./cmd/nosq-worker -run TestTraceCorpusEndToEnd
func TestTraceCorpusEndToEnd(t *testing.T) {
	repoRoot, err := filepath.Abs("../..")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(filepath.Join(repoRoot, "bench", "traces")); err != nil {
		t.Fatalf("committed trace corpus missing: %v", err)
	}

	dir := t.TempDir()
	serverBin := filepath.Join(dir, "nosq-server")
	workerBin := filepath.Join(dir, "nosq-worker")
	expBin := filepath.Join(dir, "nosq-experiments")
	traceBin := filepath.Join(dir, "nosq-trace")
	for bin, pkg := range map[string]string{
		serverBin: "../nosq-server", workerBin: ".",
		expBin: "../nosq-experiments", traceBin: "../nosq-trace",
	} {
		build := exec.Command("go", "build", "-o", bin, pkg)
		if out, err := build.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", pkg, err, out)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
	defer cancel()
	configs := "nosq-delay,perfect-smb"

	// The committed corpus must verify — full decode, hashes against the
	// provenance manifests — before anything replays it.
	verify := exec.Command(traceBin, "-verify", "bench/traces")
	verify.Dir = repoRoot
	if out, err := verify.CombinedOutput(); err != nil {
		t.Fatalf("nosq-trace -verify bench/traces: %v\n%s", err, out)
	}

	// Surface 1: the CLI, from the repository root with the default trace
	// directory — exactly how CI's nightly regression run invokes it.
	cliJSON := filepath.Join(dir, "cli.json")
	cliCSV := filepath.Join(dir, "cli.csv")
	for out, format := range map[string]string{cliJSON: "json", cliCSV: "csv"} {
		cmd := exec.Command(expBin, "-exp", "trace", "-configs", configs, "-format", format, "-out", out)
		cmd.Dir = repoRoot
		if o, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("CLI trace run (%s): %v\n%s", format, err, o)
		}
	}
	wantJSON, err := os.ReadFile(cliJSON)
	if err != nil {
		t.Fatal(err)
	}
	wantCSV, err := os.ReadFile(cliCSV)
	if err != nil {
		t.Fatal(err)
	}

	spec := simapi.JobSpec{
		Experiment: "trace",
		Source:     simclient.TraceSource(), // all committed traces
		Configs:    strings.Split(configs, ","),
	}
	fetch := func(c *simclient.Client, id string) (jsonRep, csvRep []byte) {
		t.Helper()
		j, err := c.Report(ctx, id, "json")
		if err != nil {
			t.Fatal(err)
		}
		v, err := c.Report(ctx, id, "csv")
		if err != nil {
			t.Fatal(err)
		}
		return j, v
	}

	// Surface 2: a single-node server job, server running from the repo root.
	soloURL, soloStop := startServerAt(t, repoRoot, serverBin, "-workers", "1")
	soloC := simclient.New(soloURL, nil)
	soloInfo, err := soloC.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if soloInfo, err = soloC.Wait(ctx, soloInfo.ID); err != nil {
		t.Fatal(err)
	}
	if soloInfo.State != simapi.StateDone || soloInfo.ExecutedPairs == 0 {
		t.Fatalf("single-node trace job = %+v", soloInfo)
	}
	soloJSON, soloCSV := fetch(soloC, soloInfo.ID)

	// An identical re-submission must be a pure cache hit: the traces were
	// already decoded and simulated, so not a single pair executes again.
	again, err := soloC.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again, err = soloC.Wait(ctx, again.ID); err != nil {
		t.Fatal(err)
	}
	if again.State != simapi.StateDone || again.ExecutedPairs != 0 ||
		again.CachedPairs != soloInfo.ExecutedPairs {
		t.Fatalf("identical trace re-run = %+v, want %d pairs all cache-served", again, soloInfo.ExecutedPairs)
	}
	soloStop()

	// Surface 3: a distributed fleet, every node running from the repo root.
	coordURL, _ := startServerAt(t, repoRoot, serverBin, "-workers", "1")
	c := simclient.New(coordURL, nil)
	startWorkerAt(t, repoRoot, workerBin, coordURL, "trace-a")
	startWorkerAt(t, repoRoot, workerBin, coordURL, "trace-b")
	waitRemoteWorkers(t, c, 2)
	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone {
		t.Fatalf("distributed trace job = %+v", info)
	}
	m, err := c.Metrics(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RemotePairs == 0 {
		t.Error("no pairs executed remotely; the fleet was bypassed")
	}
	distJSON, distCSV := fetch(c, info.ID)

	for _, cmp := range []struct {
		surface    string
		gotJ, gotC []byte
	}{
		{"single-node server", soloJSON, soloCSV},
		{"distributed fleet", distJSON, distCSV},
	} {
		if !bytes.Equal(wantJSON, cmp.gotJ) {
			t.Errorf("%s JSON report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantJSON, cmp.surface, cmp.gotJ)
		}
		if !bytes.Equal(wantCSV, cmp.gotC) {
			t.Errorf("%s CSV report differs from the CLI run:\n--- CLI ---\n%s\n--- %s ---\n%s",
				cmp.surface, wantCSV, cmp.surface, cmp.gotC)
		}
	}
}
