package seda

import "sync"

// Queue is an unbounded group-commit queue: senders Push without blocking,
// and a drainer's Take hands over everything that built up while it was
// busy. An idle path pays one goroutine hand-off and waits for no timer;
// a burst that arrives during a pass leaves together in the next one.
//
// Unlike a Stage, a Queue never refuses an item, so it suits only producers
// whose volume something else bounds (a caller-side dirty flag, a flight
// window) or which must never block. The zero value is ready to use.
type Queue[T any] struct {
	mu     sync.Mutex
	cond   sync.Cond // cond.L is &mu, set by the first Take
	items  []T
	closed bool
}

// Push appends items and wakes one waiting Take.
func (q *Queue[T]) Push(items ...T) {
	if len(items) == 0 {
		return
	}
	q.mu.Lock()
	q.items = append(q.items, items...)
	q.mu.Unlock()
	q.cond.Signal()
}

// Take waits until the queue holds items or is closed, then moves a share of
// them — the queue's length over share, rounded up — into dst, which it
// clears and empties first. A drainer that takes every item swaps its dst in
// as the queue's backing array, so a pass reusing the returned slice
// allocates nothing. One that leaves items behind wakes the next waiter, so
// a pool of share drainers spreads a burst instead of queueing it behind
// one. After Close, Take keeps returning what is left and reports false only
// once the queue is both closed and empty.
func (q *Queue[T]) Take(dst []T, share int) ([]T, bool) {
	clear(dst)
	q.mu.Lock()
	if q.cond.L == nil {
		q.cond.L = &q.mu
	}
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	n := len(q.items)
	if share > 1 {
		n = (n + share - 1) / share
	}
	if n == len(q.items) {
		dst, q.items = q.items, dst[:0]
	} else {
		dst = append(dst[:0], q.items[:n]...)
		m := copy(q.items, q.items[n:])
		clear(q.items[m:]) // pin nothing; later pushes reuse the capacity
		q.items = q.items[:m]
	}
	more := len(q.items) > 0
	q.mu.Unlock()
	if more {
		q.cond.Signal()
	}
	return dst, n > 0
}

// Close wakes every waiting Take; items already queued are still handed out.
func (q *Queue[T]) Close() {
	q.mu.Lock()
	q.closed = true
	q.mu.Unlock()
	q.cond.Broadcast()
}
