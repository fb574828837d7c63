package simserver

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simclient"
)

// newPromTestServer is newTestServer plus the raw httptest base URL, for
// tests that need to inspect headers and bodies below the typed client.
func newPromTestServer(t *testing.T, cfg Config) (*Server, *simclient.Client, string) {
	t.Helper()
	if cfg.CodeRev == "" {
		cfg.CodeRev = "test-rev"
	}
	srv, corrupt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if corrupt != 0 {
		t.Fatalf("fresh cache reported %d corrupt lines", corrupt)
	}
	hs := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		hs.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return srv, simclient.New(hs.URL, nil), hs.URL
}

// runSmallJob submits a 1-pair sweep and waits for it, so histograms and
// per-config counters have observations.
func runSmallJob(t *testing.T, c *simclient.Client) simapi.JobInfo {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{
		Experiment: "sweep",
		Benchmarks: []string{"gzip"},
		Iterations: 25,
		Configs:    []string{"nosq-delay"},
		Windows:    []int{128},
	})
	if err != nil {
		t.Fatal(err)
	}
	done, err := c.Wait(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != simapi.StateDone {
		t.Fatalf("job state %q, want done", done.State)
	}
	return done
}

// TestMetricsPrometheusExposition scrapes /metricsz?format=prometheus after a
// real job and checks the document passes the conformance linter, carries the
// six latency histograms, and reflects the job in its counters.
func TestMetricsPrometheusExposition(t *testing.T) {
	srv, c, base := newPromTestServer(t, Config{Workers: 1, Parallelism: 1})
	srv.Start()
	runSmallJob(t, c)

	resp, err := http.Get(base + "/metricsz?format=prometheus")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain exposition", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	text := string(body)

	if err := obs.LintExposition(strings.NewReader(text)); err != nil {
		t.Fatalf("exposition fails conformance: %v\n%s", err, text)
	}

	histograms := []string{
		"nosq_job_queue_wait_seconds",
		"nosq_pair_sim_seconds",
		"nosq_wal_append_seconds",
		"nosq_cache_lookup_seconds",
		"nosq_lease_renewal_seconds",
		"nosq_http_request_seconds",
	}
	for _, name := range histograms {
		if !strings.Contains(text, "# TYPE "+name+" histogram") {
			t.Errorf("missing histogram family %s", name)
		}
	}

	// The finished job must have left observations behind.
	for _, want := range []string{
		"nosq_job_queue_wait_seconds_count 1",
		"nosq_cache_lookup_seconds_count 1", // one lookup per job
		"nosq_jobs_done_total 1",
		`nosq_sim_flushes_total{config="nosq-delay@w0128"}`,
		`nosq_sim_bypass_mispredictions_total{config="nosq-delay@w0128"}`,
		`nosq_sim_committed_insts_total{config="nosq-delay@w0128"}`,
		`nosq_build_info{revision="test-rev",`,
		`nosq_client_submitted_total{client="anonymous"} 1`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	if !strings.Contains(text, "nosq_pair_sim_seconds_count 1") {
		t.Errorf("pair latency histogram not fed by the local run:\n%s", grepFamily(text, "nosq_pair_sim_seconds"))
	}
	// The scrape itself plus the job's API traffic must have fed the route
	// histogram with bounded pattern labels, never raw URLs.
	if !strings.Contains(text, `nosq_http_request_seconds_bucket{route="POST /api/v1/jobs",`) {
		t.Errorf("HTTP duration histogram missing the submit route:\n%s", grepFamily(text, "nosq_http_request_seconds"))
	}
}

// grepFamily extracts one family's lines for a readable failure message.
func grepFamily(text, name string) string {
	var out []string
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, name) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// TestMetricsContentNegotiation locks the /metricsz contract: JSON by
// default, Prometheus via Accept: text/plain or ?format=prometheus, and a
// clean 400 for unknown formats.
func TestMetricsContentNegotiation(t *testing.T) {
	srv, _, base := newPromTestServer(t, Config{Workers: 1})
	_ = srv

	get := func(path, accept string) (*http.Response, string) {
		t.Helper()
		req, err := http.NewRequest("GET", base+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		if accept != "" {
			req.Header.Set("Accept", accept)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp, string(body)
	}

	// Default stays the historical JSON document.
	resp, body := get("/metricsz", "")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("default Content-Type = %q, want application/json", ct)
	}
	var m simapi.Metrics
	if err := json.Unmarshal([]byte(body), &m); err != nil {
		t.Fatalf("default /metricsz is not the JSON document: %v", err)
	}
	if m.CodeRev != "test-rev" || m.WorkersTotal != 1 {
		t.Errorf("JSON document = %+v", m)
	}

	// A text/plain Accept (what a Prometheus scraper sends) switches format.
	resp, body = get("/metricsz", "text/plain")
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Accept negotiation Content-Type = %q", ct)
	}
	if !strings.HasPrefix(body, "# HELP") {
		t.Errorf("Accept negotiation body does not look like exposition: %.80q", body)
	}

	// Explicit ?format=json wins over Accept.
	resp, _ = get("/metricsz?format=json", "text/plain")
	if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
		t.Errorf("format=json Content-Type = %q", ct)
	}

	resp, _ = get("/metricsz?format=xml", "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("format=xml status = %d, want 400", resp.StatusCode)
	}
}

// TestJSONContentTypes asserts every JSON endpoint declares its content type
// explicitly.
func TestJSONContentTypes(t *testing.T) {
	srv, c, base := newPromTestServer(t, Config{Workers: 1})
	_ = srv
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"},
		Iterations: 5, Configs: []string{"nosq-delay"}, Windows: []int{128}})
	if err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{
		"/healthz",
		"/metricsz",
		"/api/v1/jobs",
		"/api/v1/jobs/" + info.ID,
		"/api/v1/jobs/no-such-job", // error bodies are JSON too
	} {
		resp, err := http.Get(base + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if ct := resp.Header.Get("Content-Type"); ct != "application/json" {
			t.Errorf("%s Content-Type = %q, want application/json", path, ct)
		}
	}
}

// TestHealthBuildInfo checks /healthz carries the build section.
func TestHealthBuildInfo(t *testing.T) {
	srv, _, base := newPromTestServer(t, Config{Workers: 1})
	_ = srv
	resp, err := http.Get(base + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var h simapi.Health
	if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
		t.Fatal(err)
	}
	if h.Build.CodeRev != "test-rev" {
		t.Errorf("build.code_rev = %q, want test-rev", h.Build.CodeRev)
	}
	if !strings.HasPrefix(h.Build.GoVersion, "go") {
		t.Errorf("build.go_version = %q", h.Build.GoVersion)
	}
}

// TestEventsKeepAlive verifies an idle event stream emits keep-alive frames:
// an SSE comment for event-stream clients, a blank line for JSONL ones. The
// job is left queued (workers never started) so the stream stays idle.
func TestEventsKeepAlive(t *testing.T) {
	srv, c, base := newPromTestServer(t, Config{Workers: 1, KeepAliveInterval: 20 * time.Millisecond})
	_ = srv // workers intentionally not started: the job never leaves the queue
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"},
		Iterations: 5, Configs: []string{"nosq-delay"}, Windows: []int{128}})
	if err != nil {
		t.Fatal(err)
	}

	stream := func(accept string) string {
		t.Helper()
		req, err := http.NewRequestWithContext(ctx, "GET", base+"/api/v1/jobs/"+info.ID+"/events", nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Accept", accept)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		// Read enough to cover the replayed backlog plus a few keep-alive
		// periods; the deadline bounds the read, not the frame count.
		r := bufio.NewReader(resp.Body)
		deadline := time.After(2 * time.Second)
		var buf strings.Builder
		lines := make(chan string)
		go func() {
			for {
				line, err := r.ReadString('\n')
				if err != nil {
					close(lines)
					return
				}
				lines <- line
			}
		}()
		for i := 0; i < 8; i++ {
			select {
			case line, ok := <-lines:
				if !ok {
					return buf.String()
				}
				buf.WriteString(line)
			case <-deadline:
				return buf.String()
			}
		}
		return buf.String()
	}

	if got := stream("text/event-stream"); !strings.Contains(got, ": keep-alive") {
		t.Errorf("SSE stream carried no keep-alive comment:\n%q", got)
	}
	if got := stream("application/x-ndjson"); !strings.Contains(got, "\n\n") {
		t.Errorf("JSONL stream carried no blank keep-alive line:\n%q", got)
	}
}

// TestJobSpanEvents runs a job to completion and checks the event log carries
// the timing spans, all of them before the terminal state event, and that the
// client's WaitTimings surfaces them as a summary.
func TestJobSpanEvents(t *testing.T) {
	srv, c, _ := newPromTestServer(t, Config{Workers: 1, Parallelism: 1})
	srv.Start()
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"},
		Iterations: 25, Configs: []string{"nosq-delay"}, Windows: []int{128}})
	if err != nil {
		t.Fatal(err)
	}
	done, timings, err := c.WaitTimings(ctx, info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if done.State != simapi.StateDone {
		t.Fatalf("job state %q, want done", done.State)
	}
	names := make(map[string]simapi.SpanInfo)
	for _, sp := range timings.Spans {
		names[sp.Name] = sp
	}
	for _, want := range []string{"queued", "run", "total"} {
		if _, ok := names[want]; !ok {
			t.Errorf("missing span %q; got %+v", want, timings.Spans)
		}
	}
	if tot, run := names["total"], names["run"]; tot.DurationMillis < run.DurationMillis {
		t.Errorf("total span %.3fms shorter than run span %.3fms", tot.DurationMillis, run.DurationMillis)
	}
	summary := timings.String()
	if !strings.Contains(summary, "queued") || !strings.Contains(summary, "total") {
		t.Errorf("timing summary missing spans:\n%s", summary)
	}

	// Every span event must precede the terminal state event, or streaming
	// clients would never see them.
	srv.mu.Lock()
	j := srv.jobs[done.ID]
	srv.mu.Unlock()
	evs, _, _ := j.eventsSince(0)
	terminalSeq, lastSpanSeq := 0, 0
	for _, ev := range evs {
		switch {
		case ev.Type == simapi.EventSpan:
			lastSpanSeq = ev.Seq
			if ev.Span == nil {
				t.Fatalf("span event without payload: %+v", ev)
			}
		case ev.Type == simapi.EventState && simapi.TerminalState(ev.State):
			terminalSeq = ev.Seq
		}
	}
	if terminalSeq == 0 || lastSpanSeq == 0 || lastSpanSeq > terminalSeq {
		t.Errorf("span events (last seq %d) must precede the terminal event (seq %d)", lastSpanSeq, terminalSeq)
	}
}

// TestClientSeriesStableOrder: the per-client series come out in client-name
// order, so every scrape lists them alike. Workers are not started, so the
// submitted jobs stay queued and the gauges do not move between scrapes.
func TestClientSeriesStableOrder(t *testing.T) {
	srv, _, base := newPromTestServer(t, Config{Workers: 1})
	clients := []string{"erin", "alice", "dave", "carol", "bob"}
	for i, client := range clients {
		spec := simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 10 + i}
		if _, err := srv.Submit(spec, client); err != nil {
			t.Fatal(err)
		}
	}
	scrape := func() string {
		t.Helper()
		resp, err := http.Get(base + "/metricsz?format=prometheus")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		var series strings.Builder
		for line := range strings.Lines(string(body)) {
			if strings.HasPrefix(line, "nosq_client_") {
				series.WriteString(line)
			}
		}
		return series.String()
	}
	first := scrape()
	if n := strings.Count(first, "\n"); n != 3*len(clients) {
		t.Fatalf("%d per-client series, want %d:\n%s", n, 3*len(clients), first)
	}
	for i := 0; i < 10; i++ {
		if got := scrape(); got != first {
			t.Fatalf("scrape %d lists the per-client series differently:\n%s\nfirst:\n%s", i+2, got, first)
		}
	}
	var order []string
	for line := range strings.Lines(first) {
		if name, ok := strings.CutPrefix(line, `nosq_client_submitted_total{client="`); ok {
			order = append(order, name[:strings.IndexByte(name, '"')])
		}
	}
	if !slices.IsSorted(order) || len(order) != len(clients) {
		t.Fatalf("client order %v, want the %d names sorted", order, len(clients))
	}
}
