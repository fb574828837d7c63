package simserver

import (
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/emu"
	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/traceio"
	"repro/internal/workload"
)

// rawTestServer exposes the HTTP surface directly, for tests that must speak
// raw JSON (legacy encodings, malformed sources) instead of typed specs.
func rawTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv, _, err := New(cfg)
	if err != nil {
		t.Fatal(err)
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
	return srv, hs
}

func postJSON(t *testing.T, url, body string) (*http.Response, string) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	return resp, string(b)
}

// TestSourceEncodingsShareIdentity pins the upgrade contract: a legacy flat
// spec and its source-union equivalent are the same job — identical dedup
// hash, so the second submission collapses onto the first.
func TestSourceEncodingsShareIdentity(t *testing.T) {
	scn := &workload.Scenario{Name: "test/dedup", Iterations: 10}
	pairs := []struct {
		name          string
		legacy, union simapi.JobSpec
	}{
		{
			"benchmarks",
			simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"}, Iterations: 10},
			simapi.JobSpec{Experiment: "sweep", Iterations: 10, Source: simclient.BenchmarkSource("gzip")},
		},
		{
			"scenario",
			simapi.JobSpec{Experiment: "scenario", Scenario: scn, Iterations: 10},
			simapi.JobSpec{Experiment: "scenario", Iterations: 10, Source: simclient.ScenarioSource(*scn)},
		},
	}
	for _, p := range pairs {
		t.Run(p.name, func(t *testing.T) {
			l, u := p.legacy, p.union
			if err := l.Normalize(); err != nil {
				t.Fatal(err)
			}
			if err := u.Normalize(); err != nil {
				t.Fatal(err)
			}
			lh, err := specHash(l)
			if err != nil {
				t.Fatal(err)
			}
			uh, err := specHash(u)
			if err != nil {
				t.Fatal(err)
			}
			if lh != uh {
				t.Fatalf("legacy hash %s != union hash %s", lh, uh)
			}

			// Service-level dedup: workers never started, so the first job
			// stays queued and the union twin must collapse onto it.
			srv, _ := rawTestServer(t, Config{Workers: 1})
			first, err := srv.Submit(p.legacy, "")
			if err != nil {
				t.Fatal(err)
			}
			second, err := srv.Submit(p.union, "")
			if err != nil {
				t.Fatal(err)
			}
			if !second.Deduped || second.ID != first.ID {
				t.Fatalf("union twin did not dedup onto legacy job: first=%+v second=%+v", first, second)
			}
		})
	}
}

// TestSubmitSourceValidation drives the HTTP surface with raw JSON: the
// legacy flat encoding still lands, and malformed sources are 400s.
func TestSubmitSourceValidation(t *testing.T) {
	_, hs := rawTestServer(t, Config{Workers: 1})
	url := hs.URL + "/api/v1/jobs"

	resp, body := postJSON(t, url, `{"experiment":"sweep","benchmarks":["gzip"],"iterations":10}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("legacy submission returned %d: %s", resp.StatusCode, body)
	}
	var info simapi.JobInfo
	if err := json.Unmarshal([]byte(body), &info); err != nil {
		t.Fatal(err)
	}
	if info.Spec.Source == nil || info.Spec.Source.Kind != simapi.SourceBenchmark ||
		len(info.Spec.Benchmarks) != 0 {
		t.Errorf("accepted job's spec was not normalized to union form: %+v", info.Spec)
	}

	cases := []struct {
		name, body, want string
	}{
		{"unknown kind",
			`{"experiment":"sweep","source":{"kind":"binary"}}`,
			"unknown source kind"},
		{"trace source on wrong experiment",
			`{"experiment":"sweep","source":{"kind":"trace","traces":["gzip-0123456789abcdef"]}}`,
			"only applies to the trace experiment"},
		{"source plus legacy fields",
			`{"experiment":"sweep","benchmarks":["gzip"],"source":{"kind":"benchmark","benchmarks":["gzip"]}}`,
			"both source and legacy"},
		{"scenario source on wrong experiment",
			`{"experiment":"sweep","source":{"kind":"scenario","scenario":{"name":"s","iterations":5}}}`,
			"only applies to the scenario experiment"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			resp, body := postJSON(t, url, c.body)
			if resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("status %d, want 400 (%s)", resp.StatusCode, body)
			}
			if !strings.Contains(body, c.want) {
				t.Errorf("error %q does not mention %q", body, c.want)
			}
		})
	}
}

// TestHealthMetricsRoutes pins the /api/v1 move: the canonical prefixed
// routes serve the documents plainly, the unprefixed legacy aliases still
// work but announce their deprecation, and both land in one histogram
// series under the historical route label.
func TestHealthMetricsRoutes(t *testing.T) {
	_, hs := rawTestServer(t, Config{Workers: 1})

	get := func(path string) (*http.Response, string) {
		t.Helper()
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		return resp, string(b)
	}

	for _, path := range []string{"/api/v1/healthz", "/api/v1/metricsz"} {
		resp, body := get(path)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, body)
		}
		if resp.Header.Get("Deprecation") != "" {
			t.Errorf("canonical route %s carries a Deprecation header", path)
		}
	}
	for legacy, successor := range map[string]string{
		"/healthz":  "/api/v1/healthz",
		"/metricsz": "/api/v1/metricsz",
	} {
		resp, body := get(legacy)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", legacy, resp.StatusCode, body)
		}
		if resp.Header.Get("Deprecation") != "true" {
			t.Errorf("legacy route %s missing Deprecation header", legacy)
		}
		if link := resp.Header.Get("Link"); !strings.Contains(link, successor) {
			t.Errorf("legacy route %s Link header %q does not name %s", legacy, link, successor)
		}
		// Alias and canonical must serve the same document shape (the bodies
		// themselves differ in live gauges like uptime).
		canon, canonBody := get(successor)
		var legacyDoc, canonDoc map[string]any
		if canon.StatusCode != http.StatusOK ||
			json.Unmarshal([]byte(body), &legacyDoc) != nil ||
			json.Unmarshal([]byte(canonBody), &canonDoc) != nil ||
			len(legacyDoc) != len(canonDoc) {
			t.Errorf("%s and %s serve different documents", legacy, successor)
		}
		for k := range legacyDoc {
			if _, ok := canonDoc[k]; !ok {
				t.Errorf("%s document lacks %q, which %s serves", successor, k, legacy)
			}
		}
	}

	// Histogram labels: both spellings observed above must fold into the
	// historical label; the /api/v1 spelling must not mint a new series.
	_, prom := get("/api/v1/metricsz?format=prometheus")
	if !strings.Contains(prom, `route="GET /healthz"`) {
		t.Errorf("prometheus exposition lost the historical route label:\n%.2000s", prom)
	}
	if strings.Contains(prom, `route="GET /api/v1/healthz"`) ||
		strings.Contains(prom, `route="GET /api/v1/metricsz"`) {
		t.Errorf("prometheus exposition minted new labels for the /api/v1 aliases")
	}
}

// TestServerTraceJobs runs a recorded trace through the service: the job's
// report is byte-identical to the library path's, and an identical
// re-submission is served entirely from the result cache.
func TestServerTraceJobs(t *testing.T) {
	// The trace experiment reads DefaultTraceDir relative to the process
	// working directory (the spec deliberately carries no paths), so stage a
	// corpus there.
	root := t.TempDir()
	dir := filepath.Join(root, experiments.DefaultTraceDir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	p, err := workload.Generate("gzip", workload.Options{Iterations: 25})
	if err != nil {
		t.Fatal(err)
	}
	tr, err := emu.RecordTrace(p, 0)
	if err != nil {
		t.Fatal(err)
	}
	sum, err := traceio.WriteFile(filepath.Join(dir, "tmp.nsqt"), tr)
	if err != nil {
		t.Fatal(err)
	}
	m := traceio.NewManifest(sum, "workload:gzip iters=25", "test")
	if err := os.Rename(filepath.Join(dir, "tmp.nsqt"), filepath.Join(dir, m.TraceFilename())); err != nil {
		t.Fatal(err)
	}
	if _, err := traceio.WriteEntry(dir, m); err != nil {
		t.Fatal(err)
	}
	t.Chdir(root)

	spec := simapi.JobSpec{
		Experiment: "trace",
		Source:     simclient.TraceSource(m.RefName()),
		Configs:    []string{"nosq-delay", "perfect-smb"},
	}
	const wantPairs = 2

	directRep, err := func() (*experiments.Report, error) {
		exp, err := experiments.Lookup("trace")
		if err != nil {
			return nil, err
		}
		return exp.Run(context.Background(), spec.Options())
	}()
	if err != nil {
		t.Fatal(err)
	}
	directCSV, err := directRep.Render("csv")
	if err != nil {
		t.Fatal(err)
	}

	srv, hs := rawTestServer(t, Config{Workers: 1, Parallelism: 2})
	srv.Start()
	c := simclient.New(hs.URL, nil)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	info, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if info, err = c.Wait(ctx, info.ID); err != nil {
		t.Fatal(err)
	}
	if info.State != simapi.StateDone || info.ExecutedPairs != wantPairs || info.CachedPairs != 0 {
		t.Fatalf("first trace job = %+v, want %d executed pairs", info, wantPairs)
	}
	got, err := c.Report(ctx, info.ID, "csv")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != directCSV {
		t.Fatalf("server trace report differs from library path:\n--- server ---\n%s\n--- direct ---\n%s", got, directCSV)
	}

	// Identical spec again: every pair from the result cache.
	again, err := c.Submit(ctx, spec)
	if err != nil {
		t.Fatal(err)
	}
	if again, err = c.Wait(ctx, again.ID); err != nil {
		t.Fatal(err)
	}
	if again.State != simapi.StateDone || again.ExecutedPairs != 0 || again.CachedPairs != wantPairs {
		t.Fatalf("identical trace re-run = %+v, want fully cache-served", again)
	}
}
