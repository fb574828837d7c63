package simworker

import (
	"context"
	"encoding/json"
	"errors"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/simapi"
	"repro/internal/simclient"
	"repro/internal/simwire"
)

// stubCoordinator is an httptest coordinator that leases one four-pair task
// and records every progress post. With failFirst it answers the first post
// that carries pairs with a 500.
type stubCoordinator struct {
	t         *testing.T
	task      simwire.Task
	failFirst bool
	idle      chan struct{} // closed at the first lease request after the task

	mu       sync.Mutex
	leases   int
	posts    [][]simwire.Pair // the pairs of each accepted post, in arrival order
	failed   []simwire.Pair   // the refused post's pairs
	failedAt int              // len(posts) when the post was refused
}

func newStub(t *testing.T, failFirst bool) (*stubCoordinator, string) {
	s := &stubCoordinator{
		t: t,
		task: simwire.Task{ID: "task-000001", JobID: "job-000001", Attempt: 1, Pairs: []int{0, 1, 2, 3},
			Spec: simapi.JobSpec{Experiment: "sweep", Benchmarks: []string{"gzip"}, Iterations: 12,
				Configs: []string{"assoc-sq-storesets", "nosq-nodelay", "nosq-delay", "perfect-smb"}}},
		failFirst: failFirst,
		idle:      make(chan struct{}),
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/v1/worker/register", func(w http.ResponseWriter, r *http.Request) {
		var req simwire.RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.CodeRev != obs.CodeRevision() {
			t.Errorf("registration %+v (%v), want code revision %q", req, err, obs.CodeRevision())
		}
		// Heartbeats every 30 ms: a task of four pairs 40 ms apart spans
		// several of them.
		json.NewEncoder(w).Encode(simwire.RegisterResponse{WorkerID: "worker-000001", LeaseTTLMillis: 90, PollMillis: 5})
	})
	mux.HandleFunc("POST /api/v1/worker/lease", func(w http.ResponseWriter, r *http.Request) {
		s.mu.Lock()
		defer s.mu.Unlock()
		s.leases++
		resp := simwire.LeaseResponse{PollMillis: 5}
		switch s.leases {
		case 1:
			resp.Task = &s.task
		case 2:
			close(s.idle)
		}
		json.NewEncoder(w).Encode(resp)
	})
	mux.HandleFunc("POST /api/v1/worker/tasks/{id}/progress", func(w http.ResponseWriter, r *http.Request) {
		var req simwire.ProgressRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		if req.Error != "" {
			t.Errorf("worker reported a failure: %s", req.Error)
		}
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.failFirst && s.failed == nil && len(req.Pairs) > 0 {
			s.failed, s.failedAt = req.Pairs, len(s.posts)
			http.Error(w, `{"error":"injected failure"}`, http.StatusInternalServerError)
			return
		}
		s.posts = append(s.posts, req.Pairs)
		json.NewEncoder(w).Encode(simwire.ProgressResponse{})
	})
	hs := httptest.NewServer(mux)
	t.Cleanup(hs.Close)
	return s, hs.URL
}

// runTaskToIdle runs an agent against the stub until it asks for work after
// its task, then stops it.
func (s *stubCoordinator) runTaskToIdle(url string) {
	s.t.Helper()
	a, err := New(Config{Server: url, Name: "stubbed", Parallelism: 1,
		PollInterval: 5 * time.Millisecond, PairDelay: 40 * time.Millisecond})
	if err != nil {
		s.t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() { done <- a.Run(ctx) }()
	select {
	case <-s.idle:
	case err := <-done:
		s.t.Fatalf("Run returned during the task: %v", err)
	case <-time.After(time.Minute):
		s.t.Fatal("the agent never finished its task")
	}
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		s.t.Fatalf("Run = %v, want context.Canceled", err)
	}
}

// checkEachPairOnce fails unless the accepted posts carry each of the task's
// pairs exactly once, each with a measured wall time.
func (s *stubCoordinator) checkEachPairOnce() {
	s.t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	seen := make(map[string]int)
	for _, post := range s.posts {
		for _, p := range post {
			seen[p.Entry.Benchmark+"/"+p.Entry.Config]++
			if p.WallMillis <= 0 || p.Entry.Run.Committed == 0 {
				s.t.Errorf("pair %s/%s posted with wall %v ms and %d insts", p.Entry.Benchmark, p.Entry.Config,
					p.WallMillis, p.Entry.Run.Committed)
			}
		}
	}
	if len(seen) != len(s.task.Pairs) {
		s.t.Errorf("posted pairs %v, want the task's %d", seen, len(s.task.Pairs))
	}
	for pair, n := range seen {
		if n != 1 {
			s.t.Errorf("pair %s posted %d times, want once", pair, n)
		}
	}
}

// TestEveryPairPostedOnce: without failures, the heartbeats and the final
// post together carry each executed pair exactly once.
func TestEveryPairPostedOnce(t *testing.T) {
	s, url := newStub(t, false)
	s.runTaskToIdle(url)
	s.checkEachPairOnce()
	s.mu.Lock()
	defer s.mu.Unlock()
	withPairs := 0
	for _, post := range s.posts {
		if len(post) > 0 {
			withPairs++
		}
	}
	if withPairs < 2 {
		t.Errorf("pairs arrived in %d posts, want them spread over heartbeats", withPairs)
	}
}

// TestFailedPostRidesNextPost: the pairs of a post that failed are sent
// again at the head of the next post, and no pair is lost or posted twice.
func TestFailedPostRidesNextPost(t *testing.T) {
	s, url := newStub(t, true)
	s.runTaskToIdle(url)
	s.checkEachPairOnce()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.failed == nil {
		t.Fatal("no post carrying pairs was refused")
	}
	if s.failedAt >= len(s.posts) {
		t.Fatalf("no post was accepted after the refused one")
	}
	next := s.posts[s.failedAt]
	if len(next) < len(s.failed) || !reflect.DeepEqual(next[:len(s.failed)], s.failed) {
		t.Errorf("post after the refused one carries %d pairs, want the refused %d at its head", len(next), len(s.failed))
	}
}

// TestRunEndsOnRevisionRefusal: a coordinator that refuses the worker's
// revision with 409 ends Run with that error after one attempt.
func TestRunEndsOnRevisionRefusal(t *testing.T) {
	var registers atomic.Int32
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		registers.Add(1)
		w.Header().Set("Content-Type", "application/json")
		w.WriteHeader(http.StatusConflict)
		json.NewEncoder(w).Encode(simapi.ErrorBody{Error: `worker "w" runs code revision "dev" but the coordinator runs "abc123"`})
	}))
	defer hs.Close()
	a, err := New(Config{Server: hs.URL, PollInterval: time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err = a.Run(ctx)
	var apiErr *simclient.APIError
	if !errors.As(err, &apiErr) || apiErr.Status != http.StatusConflict || !strings.Contains(apiErr.Message, `"abc123"`) {
		t.Fatalf("Run = %v, want the coordinator's 409 refusal", err)
	}
	if n := registers.Load(); n != 1 {
		t.Errorf("registered %d times, want one attempt and no retry", n)
	}
}
