package simserver

import (
	"container/heap"
	"sync"
)

// jobQueue is the server's pending-job queue: a priority queue (higher
// priority first, submission order within a priority) that worker goroutines
// block on. Jobs canceled while queued are removed in place, so a canceled
// job never reaches a worker.
type jobQueue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	heap   jobHeap
	closed bool
}

func newJobQueue() *jobQueue {
	q := &jobQueue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// push enqueues a job. The server pushes under its lock and checks isClosed
// first, so no job is pushed after close.
func (q *jobQueue) push(j *job) {
	q.mu.Lock()
	defer q.mu.Unlock()
	heap.Push(&q.heap, j)
	q.cond.Signal()
}

// pop blocks until a job is available or the queue is closed; ok is false
// once the queue is closed.
func (q *jobQueue) pop() (j *job, ok bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.heap) == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.closed {
		return nil, false
	}
	return heap.Pop(&q.heap).(*job), true
}

// remove takes a still-queued job out of the queue, reporting whether it was
// present (false means a worker already claimed it). A closed queue keeps its
// jobs: a cancel that comes after the stop ends no job.
func (q *jobQueue) remove(j *job) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed || j.heapIndex < 0 || j.heapIndex >= len(q.heap) || q.heap[j.heapIndex] != j {
		return false
	}
	heap.Remove(&q.heap, j.heapIndex)
	return true
}

// depth returns the number of queued jobs.
func (q *jobQueue) depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.heap)
}

// close wakes every blocked worker; every later pop returns ok=false. Jobs
// left in the queue stay there, queued: shutdown ends no job.
func (q *jobQueue) close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}

// isClosed reports whether close has run.
func (q *jobQueue) isClosed() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.closed
}

// jobHeap implements container/heap: higher priority first, then lower
// submission sequence.
type jobHeap []*job

func (h jobHeap) Len() int { return len(h) }
func (h jobHeap) Less(i, k int) bool {
	if h[i].spec.Priority != h[k].spec.Priority {
		return h[i].spec.Priority > h[k].spec.Priority
	}
	return h[i].seq < h[k].seq
}
func (h jobHeap) Swap(i, k int) {
	h[i], h[k] = h[k], h[i]
	h[i].heapIndex = i
	h[k].heapIndex = k
}
func (h *jobHeap) Push(x interface{}) {
	j := x.(*job)
	j.heapIndex = len(*h)
	*h = append(*h, j)
}
func (h *jobHeap) Pop() interface{} {
	old := *h
	n := len(old)
	j := old[n-1]
	old[n-1] = nil
	j.heapIndex = -1
	*h = old[:n-1]
	return j
}
