// Package simclient is the typed Go client for the simulation service
// (internal/simserver, command nosq-server). It covers the whole REST
// surface: submitting jobs, listing and inspecting them, cancelling,
// following the per-job progress feed, and fetching finished reports — plus
// the three worker-protocol calls a remote worker makes (RegisterWorker,
// LeaseTask, TaskProgress; see internal/simwire).
//
// Typical flow:
//
//	c := simclient.New("http://127.0.0.1:8080", nil)
//	info, err := c.Submit(ctx, simapi.JobSpec{Experiment: "fig2", Iterations: 100})
//	info, err = c.Wait(ctx, info.ID)
//	report, err := c.Report(ctx, info.ID, "json")
//
// A job's program source is declared with the typed Source constructors —
// named benchmarks, an inline workload scenario spec (see internal/workload),
// or recorded traces (see internal/traceio):
//
//	scn, err := workload.LoadScenarioFile("my.json")
//	info, err = c.Submit(ctx, simapi.JobSpec{Experiment: "scenario", Source: simclient.ScenarioSource(scn)})
//	info, err = c.Submit(ctx, simapi.JobSpec{Experiment: "trace", Source: simclient.TraceSource("gzip-0123456789abcdef")})
package simclient

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/simapi"
	"repro/internal/simwire"
	"repro/internal/workload"
)

// Client talks to one simulation server.
type Client struct {
	base     string
	hc       *http.Client
	clientID string
}

// New creates a client for the server at baseURL (e.g.
// "http://127.0.0.1:8080"). Pass a custom *http.Client to control timeouts
// and transport; nil uses http.DefaultClient (no request timeout — streaming
// endpoints are long-lived, so bound individual calls with their contexts).
func New(baseURL string, hc *http.Client) *Client {
	if hc == nil {
		hc = http.DefaultClient
	}
	for len(baseURL) > 0 && baseURL[len(baseURL)-1] == '/' {
		baseURL = baseURL[:len(baseURL)-1]
	}
	return &Client{base: baseURL, hc: hc}
}

// WithClientID sets the X-Client-ID header sent with every request — the
// identity the server's per-client quotas and rate limits charge ("" = the
// server's shared anonymous bucket). It returns the client for chaining.
func (c *Client) WithClientID(id string) *Client {
	c.clientID = id
	return c
}

// APIError is a non-2xx response, carrying the HTTP status and the server's
// error message.
type APIError struct {
	Status  int
	Message string
	// RetryAfter is the server's backoff hint on 429 quota refusals (zero
	// when the response carried none).
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("simclient: server returned %d: %s", e.Status, e.Message)
}

// apiError decodes an error body from a non-2xx response, picking up the
// Retry-After hint of quota refusals (millisecond-precise from the body when
// present, whole seconds from the header otherwise).
func apiError(resp *http.Response) error {
	body, _ := io.ReadAll(io.LimitReader(resp.Body, 1<<16))
	e := &APIError{Status: resp.StatusCode, Message: string(bytes.TrimSpace(body))}
	var eb simapi.ErrorBody
	if json.Unmarshal(body, &eb) == nil && eb.Error != "" {
		e.Message = eb.Error
		e.RetryAfter = time.Duration(eb.RetryAfterMillis) * time.Millisecond
	}
	if e.RetryAfter <= 0 {
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			e.RetryAfter = time.Duration(secs) * time.Second
		}
	}
	return e
}

// newRequest builds a request against the server, attaching the client
// identity header when one is set.
func (c *Client) newRequest(ctx context.Context, method, path string, body io.Reader) (*http.Request, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, err
	}
	if c.clientID != "" {
		req.Header.Set("X-Client-ID", c.clientID)
	}
	return req, nil
}

// do performs one JSON request/response round trip. in (when non-nil) is
// marshalled as the request body; out (when non-nil) receives the decoded
// 2xx response body.
func (c *Client) do(ctx context.Context, method, path string, in, out interface{}) error {
	var body io.Reader
	if in != nil {
		b, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(b)
	}
	req, err := c.newRequest(ctx, method, path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		return apiError(resp)
	}
	if out == nil {
		io.Copy(io.Discard, resp.Body)
		return nil
	}
	return json.NewDecoder(resp.Body).Decode(out)
}

// Submit submits a job spec. The returned info is the queued job — or, when
// Deduped is set, an already-active identical job the submission collapsed
// onto.
func (c *Client) Submit(ctx context.Context, spec simapi.JobSpec) (simapi.JobInfo, error) {
	var info simapi.JobInfo
	err := c.do(ctx, http.MethodPost, "/api/v1/jobs", spec, &info)
	return info, err
}

// SubmitWait submits a spec, honoring the server's backpressure: a 429
// quota refusal sleeps out the response's Retry-After hint (500ms when the
// server sent none) and retries until the submission lands, a different
// error occurs, or ctx ends.
func (c *Client) SubmitWait(ctx context.Context, spec simapi.JobSpec) (simapi.JobInfo, error) {
	for {
		info, err := c.Submit(ctx, spec)
		var apiErr *APIError
		if !errors.As(err, &apiErr) || apiErr.Status != http.StatusTooManyRequests {
			return info, err
		}
		d := apiErr.RetryAfter
		if d <= 0 {
			d = 500 * time.Millisecond
		}
		select {
		case <-ctx.Done():
			return simapi.JobInfo{}, ctx.Err()
		case <-time.After(d):
		}
	}
}

// Job fetches one job's current info.
func (c *Client) Job(ctx context.Context, id string) (simapi.JobInfo, error) {
	var info simapi.JobInfo
	err := c.do(ctx, http.MethodGet, "/api/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Jobs lists jobs in submission order; state ("" = all) filters.
func (c *Client) Jobs(ctx context.Context, state string) ([]simapi.JobInfo, error) {
	path := "/api/v1/jobs"
	if state != "" {
		path += "?state=" + url.QueryEscape(state)
	}
	var infos []simapi.JobInfo
	err := c.do(ctx, http.MethodGet, path, nil, &infos)
	return infos, err
}

// Cancel cancels a queued or running job and returns its info afterwards.
func (c *Client) Cancel(ctx context.Context, id string) (simapi.JobInfo, error) {
	var info simapi.JobInfo
	err := c.do(ctx, http.MethodDelete, "/api/v1/jobs/"+url.PathEscape(id), nil, &info)
	return info, err
}

// Report fetches a finished job's report rendered in the given format
// (text, markdown, json, or csv; "" = json).
func (c *Client) Report(ctx context.Context, id, format string) ([]byte, error) {
	path := "/api/v1/jobs/" + url.PathEscape(id) + "/report"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return nil, err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, apiError(resp)
	}
	return io.ReadAll(resp.Body)
}

// RegisterWorker enrolls this process in the coordinator's remote-worker
// fleet and returns the assigned identity plus lease/poll parameters
// (command nosq-worker's first call; see the simwire package for the
// protocol). A 409 APIError means the coordinator runs another code
// revision; its message names both.
func (c *Client) RegisterWorker(ctx context.Context, req simwire.RegisterRequest) (simwire.RegisterResponse, error) {
	var resp simwire.RegisterResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/worker/register", req, &resp)
	return resp, err
}

// LeaseTask asks the coordinator for a shard task. A nil task means no work
// is available; poll again after the response's PollMillis. A 404 APIError
// means the coordinator no longer knows this worker id (restart or
// liveness prune) — re-register and retry.
func (c *Client) LeaseTask(ctx context.Context, workerID string) (simwire.LeaseResponse, error) {
	var resp simwire.LeaseResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/worker/lease", simwire.LeaseRequest{WorkerID: workerID}, &resp)
	return resp, err
}

// TaskProgress delivers finished pairs for a leased task and renews its
// lease; no pairs is a pure heartbeat. A non-empty errMsg reports a
// simulation failure, failing the job. A response with Canceled set tells
// the worker to abandon the task.
func (c *Client) TaskProgress(ctx context.Context, taskID, workerID string, pairs []simwire.Pair, errMsg string) (simwire.ProgressResponse, error) {
	var resp simwire.ProgressResponse
	err := c.do(ctx, http.MethodPost, "/api/v1/worker/tasks/"+url.PathEscape(taskID)+"/progress",
		simwire.ProgressRequest{WorkerID: workerID, Pairs: pairs, Error: errMsg}, &resp)
	return resp, err
}

// Health fetches the health document (GET /api/v1/healthz).
func (c *Client) Health(ctx context.Context) (simapi.Health, error) {
	var h simapi.Health
	err := c.do(ctx, http.MethodGet, "/api/v1/healthz", nil, &h)
	return h, err
}

// Metrics fetches the metrics document (GET /api/v1/metricsz).
func (c *Client) Metrics(ctx context.Context) (simapi.Metrics, error) {
	var m simapi.Metrics
	err := c.do(ctx, http.MethodGet, "/api/v1/metricsz", nil, &m)
	return m, err
}

// BenchmarkSource builds a benchmark program source: the named synthetic
// workloads (none = the experiment's default set).
func BenchmarkSource(names ...string) *simapi.Source {
	return &simapi.Source{Kind: simapi.SourceBenchmark, Benchmarks: names}
}

// ScenarioSource builds an inline-scenario program source for the scenario
// experiment.
func ScenarioSource(s workload.Scenario) *simapi.Source {
	return &simapi.Source{Kind: simapi.SourceScenario, Scenario: &s}
}

// TraceSource builds a recorded-trace program source for the trace
// experiment: content-addressed ref names ("<name>-<hash16>", as printed by
// nosq-trace -record and listed by nosq-trace -verify; none = every trace
// in the server's trace directory).
func TraceSource(refs ...string) *simapi.Source {
	return &simapi.Source{Kind: simapi.SourceTrace, Traces: refs}
}

// ErrStopStreaming, returned by a StreamEvents callback, ends the stream
// without error.
var ErrStopStreaming = errors.New("simclient: stop streaming")

// StreamEvents follows a job's progress feed as JSON lines, invoking fn for
// every event with Seq > from. It returns nil when the job reaches a
// terminal state (the server closes the feed), when fn returns
// ErrStopStreaming, or fn's error otherwise.
func (c *Client) StreamEvents(ctx context.Context, id string, from int, fn func(simapi.Event) error) error {
	path := "/api/v1/jobs/" + url.PathEscape(id) + "/events"
	if from > 0 {
		path += "?from=" + strconv.Itoa(from)
	}
	req, err := c.newRequest(ctx, http.MethodGet, path, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Accept", "application/x-ndjson")
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return apiError(resp)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev simapi.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return fmt.Errorf("simclient: decoding event: %w", err)
		}
		if err := fn(ev); err != nil {
			if errors.Is(err, ErrStopStreaming) {
				return nil
			}
			return err
		}
	}
	return sc.Err()
}

// Wait blocks until the job reaches a terminal state and returns its final
// info. It follows the event stream (so completion is observed immediately)
// and falls back to polling if the stream breaks or ends early — a clean
// EOF before a terminal event (proxy closing the connection) must not be
// mistaken for completion.
//
// Wait survives server restarts: connection-level failures (the server
// briefly down, a durable server replaying its WAL) are retried until ctx
// ends. Only the server's own verdicts end it early — an APIError such as a
// 404 for a job the restarted server does not know.
func (c *Client) Wait(ctx context.Context, id string) (simapi.JobInfo, error) {
	info, _, err := c.WaitTimings(ctx, id)
	return info, err
}

// TimingSummary is the job timing breakdown assembled from the span events
// of a job's progress feed (simapi.EventSpan): queue wait, per-shard
// execution, distributed merge, the run itself, and the end-to-end total.
// Empty when the stream broke before the spans arrived (Wait's poll fallback
// cannot recover them).
type TimingSummary struct {
	Spans []simapi.SpanInfo
}

// String renders the breakdown as one line per span, e.g.
//
//	queued    12ms
//	run      3.41s
//	total    3.42s
func (t TimingSummary) String() string {
	if len(t.Spans) == 0 {
		return "(no timing spans recorded)"
	}
	var b bytes.Buffer
	width := 0
	for _, s := range t.Spans {
		if len(s.Name) > width {
			width = len(s.Name)
		}
	}
	for _, s := range t.Spans {
		d := time.Duration(s.DurationMillis * float64(time.Millisecond))
		fmt.Fprintf(&b, "%-*s %10v\n", width, s.Name, d.Round(time.Millisecond))
	}
	return b.String()
}

// WaitTimings is Wait, additionally collecting the job's span events into a
// timing breakdown. The summary is best-effort: a stream that breaks and
// falls back to polling returns whatever spans arrived before the break.
func (c *Client) WaitTimings(ctx context.Context, id string) (simapi.JobInfo, TimingSummary, error) {
	var timings TimingSummary
	err := c.StreamEvents(ctx, id, 0, func(ev simapi.Event) error {
		if ev.Type == simapi.EventSpan && ev.Span != nil {
			timings.Spans = append(timings.Spans, *ev.Span)
		}
		if ev.Type == simapi.EventState && simapi.TerminalState(ev.State) {
			return ErrStopStreaming
		}
		return nil
	})
	var apiErr *APIError
	if errors.As(err, &apiErr) {
		return simapi.JobInfo{}, timings, err
	}
	if ctx.Err() != nil {
		// Report the cancellation even if the stream happened to end cleanly
		// first — never a nil error with a zero JobInfo.
		return simapi.JobInfo{}, timings, ctx.Err()
	}
	// Whatever the stream said, the job's own state decides: poll until
	// terminal (immediately satisfied in the common stream-saw-it case).
	for {
		info, err := c.Job(ctx, id)
		switch {
		case err == nil:
			if simapi.TerminalState(info.State) {
				return info, timings, nil
			}
		case errors.As(err, &apiErr):
			return info, timings, err
		case ctx.Err() != nil:
			return info, timings, ctx.Err()
			// Anything else is transport-level (connection refused while the
			// server restarts): keep polling until ctx gives up.
		}
		select {
		case <-ctx.Done():
			return info, timings, ctx.Err()
		case <-time.After(200 * time.Millisecond):
		}
	}
}
