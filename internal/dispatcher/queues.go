// Delivery queues: BlueDove's two notification paths (paper Section II-B)
// are direct delivery, where a matcher pushes matched messages straight to a
// listening subscriber, and indirect delivery, where matches land in a
// per-subscriber queue hosted by the subscriber's dispatcher that the
// subscriber polls — the model for clients such as mobile phones that cannot
// accept inbound connections. This file holds those queues.

package dispatcher

import (
	"sync"

	"bluedove/internal/core"
	"bluedove/internal/metrics"
	"bluedove/internal/wire"
)

// DefaultQueueCap bounds each subscriber queue; the oldest entries are
// evicted when a slow poller lets its queue exceed the cap.
const DefaultQueueCap = 4096

// DefaultPollBatch is the poll batch size when the request asks for 0.
const DefaultPollBatch = 256

// QueueStore hosts bounded per-subscriber delivery queues. It is safe for
// concurrent use.
type QueueStore struct {
	mu     sync.Mutex
	queues map[core.SubscriberID][]wire.DeliverBody
	cap    int
	// Evicted counts messages dropped because a queue overflowed.
	Evicted metrics.Counter
}

// NewQueueStore builds a store with the given per-subscriber capacity
// (<=0 selects DefaultQueueCap).
func NewQueueStore(capacity int) *QueueStore {
	if capacity <= 0 {
		capacity = DefaultQueueCap
	}
	return &QueueStore{queues: make(map[core.SubscriberID][]wire.DeliverBody), cap: capacity}
}

// Push appends a delivery to the subscriber's queue, evicting the oldest
// entry on overflow.
func (q *QueueStore) Push(sub core.SubscriberID, d wire.DeliverBody) {
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.queues[sub]
	if len(list) >= q.cap {
		copy(list, list[1:])
		list = list[:len(list)-1]
		q.Evicted.Add(1)
	}
	q.queues[sub] = append(list, d)
}

// Poll removes and returns up to max queued deliveries (0 selects
// DefaultPollBatch).
func (q *QueueStore) Poll(sub core.SubscriberID, max int) []wire.DeliverBody {
	if max <= 0 {
		max = DefaultPollBatch
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	list := q.queues[sub]
	if len(list) == 0 {
		return nil
	}
	n := max
	if n > len(list) {
		n = len(list)
	}
	out := make([]wire.DeliverBody, n)
	copy(out, list[:n])
	rest := list[n:]
	if len(rest) == 0 {
		delete(q.queues, sub)
	} else {
		q.queues[sub] = append(list[:0], rest...)
	}
	return out
}

// Len returns the subscriber's queued delivery count.
func (q *QueueStore) Len(sub core.SubscriberID) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.queues[sub])
}

// Drop discards a subscriber's queue (unsubscribe).
func (q *QueueStore) Drop(sub core.SubscriberID) {
	q.mu.Lock()
	defer q.mu.Unlock()
	delete(q.queues, sub)
}

// Subscribers returns the IDs with non-empty queues.
func (q *QueueStore) Subscribers() []core.SubscriberID {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]core.SubscriberID, 0, len(q.queues))
	for id := range q.queues {
		out = append(out, id)
	}
	return out
}
