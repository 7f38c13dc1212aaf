// Package seda provides the staged event-driven architecture building block
// BlueDove's matchers are built on (the paper inherits SEDA from Cassandra):
// a Stage is a bounded FIFO queue drained by a fixed worker pool, with the
// instrumentation the adaptive forwarding policy needs — queue length,
// arrival rate λ, and service capacity μ (workers over smoothed per-item
// service time).
//
// A matcher runs one stage per searchable dimension ("a separate queue is
// used to store incoming messages on each dimension", paper Section III-B1).
// Queue is the unbounded counterpart every group-commit flusher drains.
package seda

import (
	"errors"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/metrics"
)

// ErrOverflow is returned by Enqueue when the stage queue is full.
var ErrOverflow = errors.New("seda: stage queue full")

// ErrStopped is returned by Enqueue after Stop.
var ErrStopped = errors.New("seda: stage stopped")

// Stage is a bounded queue plus worker pool processing items of type T.
type Stage[T any] struct {
	name    string
	queue   chan T
	workers int
	handler func(T)
	weight  func(T) int64

	mu      sync.Mutex
	stopped bool
	wg      sync.WaitGroup

	arrivals    *metrics.RateMeter
	serviceEWMA atomic.Uint64 // float64 bits, smoothed ns/item
	processed   metrics.Counter
	dropped     metrics.Counter
	backlog     atomic.Int64 // weighted events enqueued but not yet completed
	now         func() int64
}

// Config parameterizes a stage.
type Config[T any] struct {
	// Name labels the stage in diagnostics.
	Name string
	// Depth is the queue capacity (default 65536).
	Depth int
	// Workers is the pool size (default 1).
	Workers int
	// RateWindow is the λ measurement window (default 2s).
	RateWindow time.Duration
	// Now supplies the clock (default time.Now).
	Now func() int64
	// Weight, when set, reports how many logical events one item carries
	// (a batch of n messages weighs n). λ, μ and the processed counter are
	// then kept in per-event units — a stage draining 100-message batches
	// reports the same rates as one draining 100 single messages — so the
	// adaptive forwarding policy's extrapolation stays correct under
	// batching. Default: every item weighs 1.
	Weight func(T) int64
}

// New builds and starts a stage processing items with fn.
func New[T any](cfg Config[T], fn func(T)) *Stage[T] {
	if cfg.Depth <= 0 {
		cfg.Depth = 65536
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 1
	}
	if cfg.RateWindow <= 0 {
		cfg.RateWindow = 2 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	s := &Stage[T]{
		name:     cfg.Name,
		queue:    make(chan T, cfg.Depth),
		workers:  cfg.Workers,
		handler:  fn,
		weight:   cfg.Weight,
		arrivals: metrics.NewRateMeter(cfg.RateWindow, 8),
		now:      cfg.Now,
	}
	for i := 0; i < cfg.Workers; i++ {
		s.wg.Add(1)
		go s.work()
	}
	return s
}

func (s *Stage[T]) work() {
	defer s.wg.Done()
	for item := range s.queue {
		w := s.weightOf(item)
		start := s.now()
		s.handler(item)
		// Per-event service time: a batch's wall time divided by its weight,
		// so μ stays in events/second.
		s.observeService(float64(s.now()-start) / float64(w))
		s.processed.Add(w)
		s.backlog.Add(-w)
	}
}

func (s *Stage[T]) weightOf(item T) int64 {
	if s.weight == nil {
		return 1
	}
	if w := s.weight(item); w > 0 {
		return w
	}
	return 1
}

// observeService folds one service time into the EWMA.
func (s *Stage[T]) observeService(ns float64) {
	const alpha = 0.1
	for {
		old := s.serviceEWMA.Load()
		cur := math.Float64frombits(old)
		var next float64
		if cur == 0 {
			next = ns
		} else {
			next = cur + alpha*(ns-cur)
		}
		if s.serviceEWMA.CompareAndSwap(old, math.Float64bits(next)) {
			return
		}
	}
}

// Name returns the stage label.
func (s *Stage[T]) Name() string { return s.name }

// Enqueue adds an item, failing fast when the queue is full or the stage is
// stopped (backpressure instead of unbounded memory).
func (s *Stage[T]) Enqueue(item T) error {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return ErrStopped
	}
	select {
	case s.queue <- item:
		w := s.weightOf(item)
		s.arrivals.Mark(s.now(), w)
		s.backlog.Add(w)
		s.mu.Unlock()
		return nil
	default:
		s.dropped.Add(s.weightOf(item))
		s.mu.Unlock()
		return fmt.Errorf("%w: %s", ErrOverflow, s.name)
	}
}

// Stop drains and terminates the workers. Items already queued are
// processed; subsequent Enqueues fail.
func (s *Stage[T]) Stop() {
	s.mu.Lock()
	if s.stopped {
		s.mu.Unlock()
		return
	}
	s.stopped = true
	close(s.queue)
	s.mu.Unlock()
	s.wg.Wait()
}

// Len returns the current queue length in items (a batch counts as one).
func (s *Stage[T]) Len() int { return len(s.queue) }

// EventLen returns the weighted backlog: logical events enqueued but not
// yet completed. With batching this is the queue length the adaptive
// forwarding policy must see (a queue of 2 batches × 64 messages is a
// backlog of 128, not 2).
func (s *Stage[T]) EventLen() int {
	n := s.backlog.Load()
	if n < 0 {
		n = 0
	}
	return int(n)
}

// Processed returns the number of items completed.
func (s *Stage[T]) Processed() int64 { return s.processed.Value() }

// Dropped returns the number of items rejected by backpressure.
func (s *Stage[T]) Dropped() int64 { return s.dropped.Value() }

// ArrivalRate returns λ, the arrivals/second over the rate window.
func (s *Stage[T]) ArrivalRate() float64 { return s.arrivals.Rate(s.now()) }

// ServiceCapacity returns μ, items/second the pool can sustain: workers
// divided by the smoothed per-item service time. Zero until the first item
// completes.
func (s *Stage[T]) ServiceCapacity() float64 {
	ewma := math.Float64frombits(s.serviceEWMA.Load())
	if ewma <= 0 {
		return 0
	}
	return float64(s.workers) * float64(time.Second) / ewma
}

// SeedServiceTime initializes the service-time estimate (ns/item) so load
// reports are meaningful before the first item is processed.
func (s *Stage[T]) SeedServiceTime(ns float64) {
	if ns <= 0 {
		return
	}
	s.serviceEWMA.CompareAndSwap(0, math.Float64bits(ns))
}
