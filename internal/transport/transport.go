// Package transport abstracts BlueDove's node-to-node messaging so the same
// dispatcher/matcher/gossip code runs over real TCP (production, examples)
// and over an in-process channel mesh (integration tests with fault
// injection).
//
// The protocol has two interaction styles and handlers must respect them:
// one-way sends (forwarding, load reports, gossip pushes, deliveries) where
// the handler returns nil, and request/response (table pulls, subscribes,
// polls) where the handler returns exactly one response envelope.
package transport

import (
	"errors"
	"time"

	"bluedove/internal/wire"
)

// Handler processes one incoming envelope. For request/response kinds it
// returns the response; for one-way kinds it returns nil. Handlers must be
// safe for concurrent use.
type Handler func(env *wire.Envelope) *wire.Envelope

// ErrClosed is returned after a transport has been closed.
var ErrClosed = errors.New("transport: closed")

// ErrUnreachable is returned when the destination cannot be contacted.
var ErrUnreachable = errors.New("transport: unreachable")

// ErrOverloaded is returned when the destination is reachable but cannot
// accept the envelope now (its inbound queue is full): backpressure, which
// a caller may retry, not a dead peer.
var ErrOverloaded = errors.New("transport: overloaded")

// Copying is an optional capability: transports whose Send has fully copied
// env.Body before returning implement it and report true. Hot-path senders
// use it to recycle pooled encode buffers immediately after Send; on
// transports that retain the body (the in-process mesh queues the envelope
// by reference) the buffer must be left to the garbage collector instead.
type Copying interface {
	SendCopies() bool
}

// SendCopies reports whether t's Send copies envelope bodies before
// returning (false when t does not implement Copying).
func SendCopies(t Transport) bool {
	c, ok := t.(Copying)
	return ok && c.SendCopies()
}

// Transport moves envelopes between named endpoints.
type Transport interface {
	// Listen serves handler h at addr and returns the bound address
	// (which may differ from addr, e.g. ":0" picks a port).
	Listen(addr string, h Handler) (string, error)
	// Send delivers env to addr without waiting for a response. Ordering
	// is preserved per (sender, destination) pair.
	Send(addr string, env *wire.Envelope) error
	// Request sends env to addr and waits up to timeout for the response.
	Request(addr string, env *wire.Envelope, timeout time.Duration) (*wire.Envelope, error)
	// Close releases all listeners and connections.
	Close() error
}
