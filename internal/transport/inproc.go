package transport

import (
	"fmt"
	"sync"
	"time"

	"bluedove/internal/metrics"
	"bluedove/internal/wire"
)

// Mesh is an in-process transport fabric: a registry of endpoints connected
// by virtual links. All endpoints created from one Mesh can reach each
// other. The Mesh supports fault injection — dropping a node's links or
// partitioning pairs — and counts bytes for overhead accounting.
type Mesh struct {
	mu        sync.RWMutex
	handlers  map[string]Handler
	queues    map[string]chan queued // per-destination ordered delivery
	cut       map[[2]string]bool     // directional partitions
	down      map[string]bool
	delay     time.Duration
	bytesSent metrics.Counter
	closed    bool
	wg        sync.WaitGroup
	nextAuto  int
}

type queued struct {
	env *wire.Envelope
}

// NewMesh creates an empty fabric. delay is the simulated per-message
// latency (0 for immediate delivery).
func NewMesh(delay time.Duration) *Mesh {
	return &Mesh{
		handlers: make(map[string]Handler),
		queues:   make(map[string]chan queued),
		cut:      make(map[[2]string]bool),
		down:     make(map[string]bool),
		delay:    delay,
	}
}

// BytesSent returns the total payload bytes moved through the mesh.
func (m *Mesh) BytesSent() int64 { return m.bytesSent.Value() }

// Endpoint returns a Transport view of the mesh for one logical node. The
// from label is used for partition bookkeeping.
func (m *Mesh) Endpoint(from string) Transport {
	return &meshEndpoint{mesh: m, from: from}
}

// SetDown marks an endpoint crashed (true) or restored (false): all its
// traffic, in and out, is dropped.
func (m *Mesh) SetDown(addr string, down bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.down[addr] = down
}

// Unbind releases a bound address: its serving goroutine drains and exits,
// and the address may be bound again (node restart). Safe against
// concurrent sends — send holds the mesh read lock while enqueueing, so the
// queue is only closed when no send is in flight.
func (m *Mesh) Unbind(addr string) {
	m.mu.Lock()
	q, ok := m.queues[addr]
	if ok {
		delete(m.queues, addr)
		delete(m.handlers, addr)
	}
	m.mu.Unlock()
	if ok {
		close(q)
	}
}

// Partition cuts (or heals) the directional link a→b.
func (m *Mesh) Partition(a, b string, cut bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.cut[[2]string{a, b}] = cut
}

// PartitionBoth cuts (or heals) both directions between a and b.
func (m *Mesh) PartitionBoth(a, b string, cut bool) {
	m.Partition(a, b, cut)
	m.Partition(b, a, cut)
}

// Close shuts the fabric down; subsequent operations fail with ErrClosed.
func (m *Mesh) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	for _, q := range m.queues {
		close(q)
	}
	m.mu.Unlock()
	m.wg.Wait()
	return nil
}

func (m *Mesh) listen(addr string, h Handler) (string, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return "", ErrClosed
	}
	if addr == "" || addr == ":0" {
		m.nextAuto++
		addr = fmt.Sprintf("inproc-%d", m.nextAuto)
	}
	if _, dup := m.handlers[addr]; dup {
		return "", fmt.Errorf("transport: address %q already bound", addr)
	}
	m.handlers[addr] = h
	q := make(chan queued, 4096)
	m.queues[addr] = q
	m.wg.Add(1)
	go m.serve(addr, h, q)
	return addr, nil
}

// serve drains one endpoint's ordered delivery queue.
func (m *Mesh) serve(addr string, h Handler, q chan queued) {
	defer m.wg.Done()
	for item := range q {
		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		m.mu.RLock()
		dead := m.down[addr]
		m.mu.RUnlock()
		if dead {
			continue
		}
		h(item.env)
	}
}

// reachable reports whether from can currently reach to.
func (m *Mesh) reachable(from, to string) bool {
	if m.closed || m.down[from] || m.down[to] || m.cut[[2]string{from, to}] {
		return false
	}
	_, ok := m.handlers[to]
	return ok
}

func (m *Mesh) send(from, to string, env *wire.Envelope) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrClosed
	}
	if !m.reachable(from, to) {
		return fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	m.bytesSent.Add(int64(wire.FrameSize(env)))
	select {
	case m.queues[to] <- queued{env: env}:
		return nil
	default:
		return fmt.Errorf("%w: %s inbound queue full", ErrOverloaded, to)
	}
}

func (m *Mesh) request(from, to string, env *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	m.mu.RLock()
	if m.closed {
		m.mu.RUnlock()
		return nil, ErrClosed
	}
	if !m.reachable(from, to) {
		m.mu.RUnlock()
		return nil, fmt.Errorf("%w: %s -> %s", ErrUnreachable, from, to)
	}
	h := m.handlers[to]
	m.bytesSent.Add(int64(wire.FrameSize(env)))
	m.mu.RUnlock()

	type result struct{ resp *wire.Envelope }
	ch := make(chan result, 1)
	go func() {
		if m.delay > 0 {
			time.Sleep(m.delay)
		}
		ch <- result{resp: h(env)}
	}()
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	select {
	case r := <-ch:
		if r.resp == nil {
			return nil, fmt.Errorf("transport: no response from %s for %v", to, env.Kind)
		}
		m.bytesSent.Add(int64(wire.FrameSize(r.resp)))
		return r.resp, nil
	case <-time.After(timeout):
		return nil, fmt.Errorf("transport: request to %s timed out", to)
	}
}

// meshEndpoint adapts a Mesh to the Transport interface for one node.
type meshEndpoint struct {
	mesh *Mesh
	from string
}

// Listen implements Transport.
func (e *meshEndpoint) Listen(addr string, h Handler) (string, error) {
	bound, err := e.mesh.listen(addr, h)
	if err == nil && (e.from == "" || e.from == ":0") {
		e.from = bound
	}
	return bound, err
}

// Send implements Transport.
func (e *meshEndpoint) Send(addr string, env *wire.Envelope) error {
	return e.mesh.send(e.from, addr, env)
}

// Request implements Transport.
func (e *meshEndpoint) Request(addr string, env *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	return e.mesh.request(e.from, addr, env, timeout)
}

// Close implements Transport. Closing an endpoint marks it down; the mesh
// itself stays up for other endpoints.
func (e *meshEndpoint) Close() error {
	e.mesh.SetDown(e.from, true)
	return nil
}
