package simserver

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/simapi"
	"repro/internal/simwire"
	"repro/internal/stats"
)

// Handler returns the server's HTTP handler: the route mux wrapped in the
// request-duration middleware.
func (s *Server) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		s.mux.ServeHTTP(w, r)
		// The mux fills in r.Pattern during dispatch, so the label is the
		// bounded route pattern ("GET /api/v1/jobs/{id}"), never the raw URL.
		// Canonical /api/v1 health and metrics routes share their legacy
		// alias's label: one logical endpoint, one histogram series, so
		// dashboards keyed on the historical labels survive the move.
		route := r.Pattern
		switch route {
		case "":
			route = "unmatched"
		case "GET /api/v1/healthz":
			route = "GET /healthz"
		case "GET /api/v1/metricsz":
			route = "GET /metricsz"
		}
		s.prom.httpSeconds.With(route).ObserveSince(start)
	})
}

// deprecated wraps a legacy unprefixed route's handler: same behaviour as
// its /api/v1 successor, plus RFC 8594-style headers telling clients where
// the canonical route lives.
func deprecated(successor string, h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Deprecation", "true")
		w.Header().Set("Link", fmt.Sprintf("<%s>; rel=\"successor-version\"", successor))
		h(w, r)
	}
}

func (s *Server) routes() {
	s.mux = http.NewServeMux()
	// Health and metrics live under /api/v1 like every other route; the
	// historical unprefixed paths stay as deprecated aliases so existing
	// probes and scrapers keep working.
	s.mux.HandleFunc("GET /api/v1/healthz", s.handleHealth)
	s.mux.HandleFunc("GET /api/v1/metricsz", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", deprecated("/api/v1/healthz", s.handleHealth))
	s.mux.HandleFunc("GET /metricsz", deprecated("/api/v1/metricsz", s.handleMetrics))
	s.mux.HandleFunc("POST /api/v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /api/v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}", s.handleJob)
	s.mux.HandleFunc("DELETE /api/v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("POST /api/v1/jobs/{id}/cancel", s.handleCancel)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("GET /api/v1/jobs/{id}/report", s.handleReport)
	s.mux.HandleFunc("POST /api/v1/worker/register", s.handleWorkerRegister)
	s.mux.HandleFunc("POST /api/v1/worker/lease", s.handleWorkerLease)
	s.mux.HandleFunc("POST /api/v1/worker/tasks/{id}/progress", s.handleWorkerProgress)
}

// decodeWire decodes a worker-protocol body. Unlike job submission it
// tolerates unknown fields (see the simwire package comment). The limit is
// generous: a worker's final post may carry most of a large shard task.
func decodeWire(w http.ResponseWriter, r *http.Request, v interface{}) bool {
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 16<<20)).Decode(v); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding request: %v", err)
		return false
	}
	return true
}

func (s *Server) handleWorkerRegister(w http.ResponseWriter, r *http.Request) {
	var req simwire.RegisterRequest
	if !decodeWire(w, r, &req) {
		return
	}
	resp, err := s.dispatch.register(req)
	if err != nil {
		writeErr(w, http.StatusConflict, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleWorkerLease(w http.ResponseWriter, r *http.Request) {
	var req simwire.LeaseRequest
	if !decodeWire(w, r, &req) {
		return
	}
	task, err := s.dispatch.lease(req.WorkerID)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, simwire.LeaseResponse{
		Task:       task,
		PollMillis: int(s.cfg.PollInterval / time.Millisecond),
	})
}

func (s *Server) handleWorkerProgress(w http.ResponseWriter, r *http.Request) {
	var req simwire.ProgressRequest
	if !decodeWire(w, r, &req) {
		return
	}
	start := time.Now()
	canceled, err := s.dispatch.deliver(r.PathValue("id"), req.WorkerID, req.Pairs, req.Error)
	s.prom.leaseRTT.ObserveSince(start)
	if err != nil {
		writeErr(w, http.StatusNotFound, "%v", err)
		return
	}
	writeJSON(w, http.StatusOK, simwire.ProgressResponse{Canceled: canceled})
}

func writeJSON(w http.ResponseWriter, code int, v interface{}) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeErr(w http.ResponseWriter, code int, format string, args ...interface{}) {
	writeJSON(w, code, simapi.ErrorBody{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Health())
}

// handleMetrics serves /metricsz. The historical JSON document stays the
// default; Prometheus text exposition is opt-in via ?format=prometheus or an
// Accept header asking for text/plain (what a Prometheus scraper sends).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	format := r.URL.Query().Get("format")
	switch {
	case format == "prometheus",
		format == "" && strings.Contains(r.Header.Get("Accept"), "text/plain"):
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		w.WriteHeader(http.StatusOK)
		s.prom.reg.WritePrometheus(w)
	case format == "" || format == "json":
		writeJSON(w, http.StatusOK, s.Metrics())
	default:
		writeErr(w, http.StatusBadRequest, "unknown metrics format %q (want json or prometheus)", format)
	}
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	client := r.Header.Get("X-Client-ID")
	if client != "" && !validClientID(client) {
		writeErr(w, http.StatusBadRequest,
			"invalid X-Client-ID %q (1-64 chars from [A-Za-z0-9._/-])", client)
		return
	}
	var spec simapi.JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		writeErr(w, http.StatusBadRequest, "decoding job spec: %v", err)
		return
	}
	info, err := s.Submit(spec, client)
	if err != nil {
		var qerr *QuotaError
		if errors.As(err, &qerr) {
			// 429 with both hints: the standard Retry-After header in whole
			// seconds (ceiling, so "soon" never rounds to "now") and the
			// precise millisecond figure in the body for typed clients.
			secs := int((qerr.RetryAfter + time.Second - 1) / time.Second)
			if secs < 1 {
				secs = 1
			}
			ms := qerr.RetryAfter.Milliseconds()
			if ms < 1 {
				ms = 1
			}
			w.Header().Set("Retry-After", strconv.Itoa(secs))
			writeJSON(w, http.StatusTooManyRequests,
				simapi.ErrorBody{Error: err.Error(), RetryAfterMillis: ms})
			return
		}
		code := http.StatusBadRequest
		if errors.Is(err, ErrShuttingDown) {
			code = http.StatusServiceUnavailable
		}
		writeErr(w, code, "%v", err)
		return
	}
	code := http.StatusCreated
	if info.Deduped {
		code = http.StatusOK
	}
	writeJSON(w, code, info)
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	state := r.URL.Query().Get("state")
	if state != "" && !validState(state) {
		writeErr(w, http.StatusBadRequest, "unknown state filter %q", state)
		return
	}
	writeJSON(w, http.StatusOK, s.Jobs(state))
}

func validState(s string) bool {
	switch s {
	case simapi.StateQueued, simapi.StateRunning, simapi.StateDone,
		simapi.StateFailed, simapi.StateCanceled:
		return true
	}
	return false
}

func (s *Server) lookupJob(w http.ResponseWriter, r *http.Request) (*job, bool) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return nil, false
	}
	return j, true
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	info, ok := s.Cancel(id)
	if !ok {
		writeErr(w, http.StatusNotFound, "no job %q", id)
		return
	}
	writeJSON(w, http.StatusOK, info)
}

// handleEvents streams a job's progress feed from ?from= (exclusive, default
// 0): every recorded event, then live events as they land, until the job
// reaches a terminal state, the server stops (no terminal event will come)
// or the client goes away. The feed is Server-Sent Events when the client
// asks for text/event-stream, JSON Lines otherwise — both carry the same
// Event documents.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	from := 0
	if v := r.URL.Query().Get("from"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 0 {
			writeErr(w, http.StatusBadRequest, "bad from=%q", v)
			return
		}
		from = n
	}
	sse := strings.Contains(r.Header.Get("Accept"), "text/event-stream")
	if sse {
		w.Header().Set("Content-Type", "text/event-stream")
		w.Header().Set("Cache-Control", "no-cache")
	} else {
		w.Header().Set("Content-Type", "application/x-ndjson")
	}
	w.WriteHeader(http.StatusOK)
	flusher, _ := w.(http.Flusher)

	// Idle streams emit periodic keep-alive frames so intermediaries do not
	// sever a long quiet watch: an SSE comment line, which clients ignore by
	// spec, or a blank JSONL line, which line-oriented readers skip.
	var keepAlive <-chan time.Time
	if s.cfg.KeepAliveInterval > 0 {
		t := time.NewTicker(s.cfg.KeepAliveInterval)
		defer t.Stop()
		keepAlive = t.C
	}

	for {
		evs, state, notify := j.eventsSince(from)
		for _, ev := range evs {
			b, err := json.Marshal(ev)
			if err != nil {
				return
			}
			if sse {
				fmt.Fprintf(w, "data: %s\n\n", b)
			} else {
				w.Write(append(b, '\n'))
			}
			from = ev.Seq
		}
		if flusher != nil {
			flusher.Flush()
		}
		if simapi.TerminalState(state) {
			return
		}
		select {
		case <-notify:
		case <-keepAlive:
			if sse {
				fmt.Fprint(w, ": keep-alive\n\n")
			} else {
				fmt.Fprint(w, "\n")
			}
			if flusher != nil {
				flusher.Flush()
			}
		case <-r.Context().Done():
			return
		case <-s.baseCtx.Done():
			return
		}
	}
}

// handleReport serves a finished job's report in any stats.Table format.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookupJob(w, r)
	if !ok {
		return
	}
	format := r.URL.Query().Get("format")
	if format == "" {
		format = stats.FormatJSON
	}
	if err := stats.ValidateFormat(format); err != nil {
		writeErr(w, http.StatusBadRequest, "%v", err)
		return
	}
	if text, ok := j.rendered(format); ok {
		writeReport(w, format, text)
		return
	}
	switch info := j.info(); {
	case info.State == simapi.StateFailed:
		writeErr(w, http.StatusConflict, "job %s failed: %s", info.ID, info.Error)
	case simapi.TerminalState(info.State):
		writeErr(w, http.StatusConflict, "job %s was %s; no report", info.ID, info.State)
	default:
		writeErr(w, http.StatusConflict, "job %s is %s; report not ready", info.ID, info.State)
	}
}

func writeReport(w http.ResponseWriter, format, text string) {
	switch format {
	case stats.FormatJSON:
		w.Header().Set("Content-Type", "application/json")
	case stats.FormatCSV:
		w.Header().Set("Content-Type", "text/csv")
	case stats.FormatMarkdown:
		w.Header().Set("Content-Type", "text/markdown")
	default:
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	}
	w.WriteHeader(http.StatusOK)
	w.Write([]byte(text))
}
