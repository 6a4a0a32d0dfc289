package transport

import (
	"sync"
	"testing"
	"time"
)

// TestQueueBackpressure: a full queue makes Push wait (accounted, not
// dropped) until a consumer frees space.
func TestQueueBackpressure(t *testing.T) {
	q := NewQueue(2)
	if !q.Push([]byte{1}) || !q.Push([]byte{2}) {
		t.Fatal("pushes into empty queue failed")
	}
	done := make(chan bool)
	go func() { done <- q.Push([]byte{3}) }()
	select {
	case <-done:
		t.Fatal("push into full queue did not block")
	case <-time.After(20 * time.Millisecond):
	}
	if _, ok := q.Pop(); !ok {
		t.Fatal("pop failed")
	}
	if ok := <-done; !ok {
		t.Fatal("blocked push failed after space freed")
	}
	if q.Waits() != 1 || q.Dropped() != 0 {
		t.Fatalf("waits=%d dropped=%d, want 1/0", q.Waits(), q.Dropped())
	}
	if q.WaitTime() <= 0 {
		t.Fatal("backpressure wait not accounted")
	}
}

// TestQueueCountedDrops: Push on a closed queue fails visibly through the
// Dropped counter, and the backlog still drains.
func TestQueueCountedDrops(t *testing.T) {
	q := NewQueue(1)
	q.Push([]byte{1})
	q.Close()
	if q.Push([]byte{3}) {
		t.Fatal("push into closed queue succeeded")
	}
	if q.Dropped() != 1 {
		t.Fatalf("dropped = %d, want 1", q.Dropped())
	}
	// The backlog drains after close, then Pop reports closure.
	if v, ok := q.Pop(); !ok || len(v) != 1 {
		t.Fatalf("pop after close = %v/%v, want backlog entry", v, ok)
	}
	if _, ok := q.Pop(); ok {
		t.Fatal("pop on drained closed queue succeeded")
	}
}

// TestQueueConcurrent: many producers and consumers under race detection;
// everything pushed is popped exactly once.
func TestQueueConcurrent(t *testing.T) {
	q := NewQueue(8)
	const producers, perProducer = 4, 200
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				q.Push([]byte{byte(i)})
			}
		}()
	}
	var consumed sync.WaitGroup
	var mu sync.Mutex
	total := 0
	for c := 0; c < 3; c++ {
		consumed.Add(1)
		go func() {
			defer consumed.Done()
			for {
				if _, ok := q.Pop(); !ok {
					return
				}
				mu.Lock()
				total++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for q.Len() > 0 {
		time.Sleep(time.Millisecond)
	}
	q.Close()
	consumed.Wait()
	if total != producers*perProducer {
		t.Fatalf("consumed %d, want %d", total, producers*perProducer)
	}
	if q.Dropped() != 0 {
		t.Fatalf("dropped = %d, want 0", q.Dropped())
	}
}
