package simserver

import (
	"testing"
	"time"

	"repro/internal/simapi"
	"repro/internal/simstore"
)

func qjob(seq, priority int) *job {
	return newJob(simstore.Record{Type: simstore.RecSubmitted, Time: time.Now(), JobID: "job-test", Seq: seq,
		SpecHash: "h", Spec: &simapi.JobSpec{Experiment: "sweep", Priority: priority}})
}

func TestQueuePriorityThenFIFO(t *testing.T) {
	q := newJobQueue()
	low1, low2 := qjob(1, 0), qjob(2, 0)
	high := qjob(3, 5)
	q.push(low1)
	q.push(low2)
	q.push(high)
	if q.depth() != 3 {
		t.Fatalf("depth = %d", q.depth())
	}
	var order []int
	for i := 0; i < 3; i++ {
		j, ok := q.pop()
		if !ok {
			t.Fatal("queue closed unexpectedly")
		}
		order = append(order, j.seq)
	}
	if order[0] != 3 || order[1] != 1 || order[2] != 2 {
		t.Fatalf("pop order %v, want high priority first then FIFO", order)
	}
}

func TestQueueRemoveAndClose(t *testing.T) {
	q := newJobQueue()
	a, b := qjob(1, 0), qjob(2, 0)
	q.push(a)
	q.push(b)
	if !q.remove(a) {
		t.Fatal("remove of queued job failed")
	}
	if q.remove(a) {
		t.Fatal("second remove should report absence")
	}
	j, ok := q.pop()
	if !ok || j != b {
		t.Fatalf("pop = %v, %v", j, ok)
	}

	// close releases blocked poppers, and no pop returns a job afterwards.
	q.push(qjob(3, 0))
	popped := make(chan bool)
	go func() {
		_, ok := q.pop()
		popped <- ok
	}()
	if ok := <-popped; !ok {
		t.Fatal("pop of remaining job failed")
	}
	go func() {
		_, ok := q.pop() // blocks: queue empty
		popped <- ok
	}()
	q.close()
	select {
	case ok := <-popped:
		if ok {
			t.Fatal("pop after close should report closed")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("blocked pop not released by close")
	}
	late := qjob(4, 0)
	q.push(late)
	if _, ok := q.pop(); ok || q.remove(late) || !q.isClosed() {
		t.Fatal("a closed queue gave up a job")
	}
}
