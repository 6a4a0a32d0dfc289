package transport

import (
	"sync"
	"sync/atomic"
	"time"
)

// Queue is the bounded batch queue between the wire and the server's
// ingest shards. Push applies backpressure — it waits for space and
// accounts the wait — and every discarded batch is counted, never silent:
// the queue's whole contract is that loss is visible (the collection-plane
// analogue of the perf buffer's Lost counter).
type Queue struct {
	ch   chan []byte
	done chan struct{}
	once sync.Once

	dropped atomic.Uint64
	waits   atomic.Uint64
	waitNS  atomic.Int64
}

// NewQueue creates a queue holding up to capacity encoded batches.
func NewQueue(capacity int) *Queue {
	if capacity <= 0 {
		capacity = 256
	}
	return &Queue{ch: make(chan []byte, capacity), done: make(chan struct{})}
}

// Push enqueues one encoded batch, blocking while the queue is full
// (backpressure; the wait is accounted in Waits/WaitTime). It returns
// false — counting a drop — only when the queue is closed.
func (q *Queue) Push(enc []byte) bool {
	select {
	case <-q.done:
		q.dropped.Add(1)
		return false
	default:
	}
	select {
	case q.ch <- enc:
		return true
	default:
	}
	t0 := time.Now()
	select {
	case q.ch <- enc:
		q.waits.Add(1)
		q.waitNS.Add(time.Since(t0).Nanoseconds())
		return true
	case <-q.done:
		q.dropped.Add(1)
		return false
	}
}

// Pop dequeues one batch, blocking until one is available. It returns
// false only when the queue is closed and fully drained.
func (q *Queue) Pop() ([]byte, bool) {
	select {
	case enc := <-q.ch:
		return enc, true
	default:
	}
	select {
	case enc := <-q.ch:
		return enc, true
	case <-q.done:
		// Drain whatever raced in before the close.
		select {
		case enc := <-q.ch:
			return enc, true
		default:
			return nil, false
		}
	}
}

// Close stops the queue: blocked Pushes fail (counted as drops) and Pops
// return false once the backlog drains. Idempotent.
func (q *Queue) Close() { q.once.Do(func() { close(q.done) }) }

// Len returns the current backlog depth.
func (q *Queue) Len() int { return len(q.ch) }

// Dropped returns the number of discarded batches.
func (q *Queue) Dropped() uint64 { return q.dropped.Load() }

// Waits returns how many pushes had to block for space.
func (q *Queue) Waits() uint64 { return q.waits.Load() }

// WaitTime returns the cumulative backpressure wait.
func (q *Queue) WaitTime() time.Duration { return time.Duration(q.waitNS.Load()) }
