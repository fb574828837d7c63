package simwire

import (
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/simapi"
	"repro/internal/stats"
)

func roundTrip(t *testing.T, v interface{}) interface{} {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal %T: %v", v, err)
	}
	out := reflect.New(reflect.TypeOf(v)).Interface()
	if err := json.Unmarshal(b, out); err != nil {
		t.Fatalf("unmarshal %T: %v\n%s", v, err, b)
	}
	return reflect.ValueOf(out).Elem().Interface()
}

func TestTaskProtocolRoundTrip(t *testing.T) {
	entry := experiments.CheckpointEntry{
		Experiment: "figure-w128", Iterations: 40, Benchmark: "gzip",
		Config: "assoc-sq-storesets", Run: stats.Run{Cycles: 99, Committed: 88},
	}
	task := Task{
		ID: "task-000003", JobID: "job-000001",
		Spec:    simapi.JobSpec{Experiment: "fig2", Benchmarks: []string{"gzip"}, Iterations: 40},
		Pairs:   []int{5, 6, 9},
		Attempt: 2,
	}
	cases := []interface{}{
		RegisterRequest{Name: "worker-a", Capacity: 4, CodeRev: "0123abcd"},
		RegisterResponse{WorkerID: "w-000001", LeaseTTLMillis: 15000, PollMillis: 500},
		LeaseRequest{WorkerID: "w-000001"},
		LeaseResponse{Task: &task, PollMillis: 500},
		LeaseResponse{PollMillis: 250},
		ProgressRequest{WorkerID: "w-000001", Pairs: []Pair{NewPair(entry, 1500*time.Microsecond)}},
		ProgressRequest{WorkerID: "w-000001", Error: "boom"},
		ProgressResponse{Canceled: true},
	}
	for _, c := range cases {
		if got := roundTrip(t, c); !reflect.DeepEqual(got, c) {
			t.Errorf("%T round trip:\n got %+v\nwant %+v", c, got, c)
		}
	}
}

// TestUnknownFieldsTolerated: decoding ignores fields a type does not
// declare, as the package comment says.
func TestUnknownFieldsTolerated(t *testing.T) {
	cases := []struct {
		name string
		doc  string
		into interface{}
	}{
		{"RegisterResponse", `{"worker_id":"w-1","lease_ttl_ms":1000,"poll_ms":100,"fleet_epoch":7}`, &RegisterResponse{}},
		{"LeaseResponse", `{"task":{"id":"t-1","pairs":[0,3],"gpu_required":false},"poll_ms":100}`, &LeaseResponse{}},
		{"Task", `{"id":"t-1","job_id":"j-1","pairs":[2],"deadline":"2026-07-27T00:00:00Z"}`, &Task{}},
		{"ProgressResponse", `{"canceled":false,"throttle_ms":50}`, &ProgressResponse{}},
	}
	for _, c := range cases {
		if err := json.Unmarshal([]byte(c.doc), c.into); err != nil {
			t.Errorf("%s: unknown field rejected: %v", c.name, err)
		}
	}
}

// TestEmptyLeaseResponseOmitsTask: the "no work" response must not carry a
// task key at all — workers distinguish work from idleness by Task == nil.
func TestEmptyLeaseResponseOmitsTask(t *testing.T) {
	b, err := json.Marshal(LeaseResponse{PollMillis: 100})
	if err != nil {
		t.Fatal(err)
	}
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	if _, present := m["task"]; present {
		t.Errorf("empty lease response serialized a task key: %s", b)
	}
}
