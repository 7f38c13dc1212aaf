package dispatcher

import (
	"sync"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// batchEntries sums the decoded entries of all ForwardBatch frames seen by
// one matcher endpoint.
func (h *harness) batchEntries(t *testing.T, addr string) []wire.ForwardEntry {
	t.Helper()
	var out []wire.ForwardEntry
	for _, e := range h.received(addr, wire.KindForwardBatch) {
		b, err := wire.DecodeForwardBatch(e.Body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Entries...)
	}
	return out
}

// gateTransport holds the first ForwardBatch frame inside Send until the
// test releases it. That keeps the flusher busy, so later publications pile
// up in the open batch. It records the entry count of every ForwardBatch
// frame it is handed, in Send order.
type gateTransport struct {
	transport.Transport
	held        chan struct{} // closed once the first frame is held
	release     chan struct{}
	holdOnce    sync.Once
	releaseOnce sync.Once
	mu          sync.Mutex
	frames      []int
}

func newGate() *gateTransport {
	return &gateTransport{held: make(chan struct{}), release: make(chan struct{})}
}

// wrap is a harness config hook that puts the gate in front of the mesh.
func (g *gateTransport) wrap(c *Config) {
	g.Transport = c.Transport
	c.Transport = g
}

func (g *gateTransport) Send(addr string, env *wire.Envelope) error {
	if env.Kind == wire.KindForwardBatch {
		if b, err := wire.DecodeForwardBatch(env.Body); err == nil {
			g.mu.Lock()
			g.frames = append(g.frames, len(b.Entries))
			g.mu.Unlock()
		}
		first := false
		g.holdOnce.Do(func() { first = true })
		if first {
			close(g.held)
			<-g.release
		}
	}
	return g.Transport.Send(addr, env)
}

// open lets the held frame go.
func (g *gateTransport) open() { g.releaseOnce.Do(func() { close(g.release) }) }

// waitHeld blocks until the first frame is held in Send.
func (g *gateTransport) waitHeld(t *testing.T) {
	t.Helper()
	select {
	case <-g.held:
	case <-time.After(5 * time.Second):
		t.Fatal("no ForwardBatch frame reached the transport")
	}
}

// frameSizes returns the entry counts of the frames handed to Send so far.
func (g *gateTransport) frameSizes() []int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return append([]int(nil), g.frames...)
}

// newGatedHarness starts a harness with one matcher, m1, behind a gate.
func newGatedHarness(t *testing.T) (*harness, *gateTransport) {
	t.Helper()
	g := newGate()
	h := newHarnessWith(t, g.wrap, "m1")
	// Registered after the harness, so it runs before the harness stops
	// the dispatcher: a held flusher would block Stop.
	t.Cleanup(g.open)
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	return h, g
}

func (h *harness) publish(t *testing.T, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		msg := core.NewMessage([]float64{float64(i % 100), 50}, nil)
		h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	}
}

// A lone publication leaves as soon as the flusher is free: no batch bound
// is reached, no Stop is called, and no timer exists to wait out.
func TestForwardLonePublicationLeavesWhenFree(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))

	h.publish(t, 1)
	waitFor(t, func() bool { return len(h.batchEntries(t, "m1")) == 1 })
	if n := h.d.ForwardBatches.Value(); n != 1 {
		t.Errorf("ForwardBatches = %d, want 1", n)
	}
}

// Publications that arrive while the flusher is busy coalesce: they leave
// together in its next pass, one frame for the whole burst.
func TestForwardBatchingCoalesces(t *testing.T) {
	h, g := newGatedHarness(t)
	h.publish(t, 1)
	g.waitHeld(t)

	const n = 10
	h.publish(t, n-1)
	waitFor(t, func() bool { return h.d.Forwarded.Value() == n })
	g.open()
	waitFor(t, func() bool { return len(h.batchEntries(t, "m1")) == n })

	if got := g.frameSizes(); len(got) != 2 || got[0] != 1 || got[1] != n-1 {
		t.Errorf("frame sizes = %v, want [1 %d]", got, n-1)
	}
	if frames := h.d.ForwardBatches.Value(); frames != 2 {
		t.Errorf("ForwardBatches = %d for %d publications, want 2", frames, n)
	}
}

// A destination's batch never exceeds maxBatchCount entries: the
// publication that fills it ships it inline, even while the flusher is
// busy. Every publication arrives exactly once.
func TestForwardBatchFlushesOnCount(t *testing.T) {
	h, g := newGatedHarness(t)
	h.publish(t, 1)
	g.waitHeld(t)

	const n = 200
	h.publish(t, n-1)
	waitFor(t, func() bool { return h.d.Forwarded.Value() == n })
	g.open()
	waitFor(t, func() bool { return len(h.batchEntries(t, "m1")) == n })

	full := 0
	for _, size := range g.frameSizes() {
		if size > maxBatchCount {
			t.Errorf("frame of %d entries, limit %d", size, maxBatchCount)
		}
		if size == maxBatchCount {
			full++
		}
	}
	if full != (n-1)/maxBatchCount {
		t.Errorf("%d full frames in %v, want %d", full, g.frameSizes(), (n-1)/maxBatchCount)
	}
	seen := make(map[core.MessageID]bool, n)
	for _, e := range h.batchEntries(t, "m1") {
		if seen[e.Msg.ID] {
			t.Fatalf("publication %v forwarded twice", e.Msg.ID)
		}
		seen[e.Msg.ID] = true
	}
}

// Stop ships the batches still open: a publication buffered while the
// flusher is busy has been handed to the transport when Stop returns.
func TestForwardBatchFlushedOnStop(t *testing.T) {
	h, g := newGatedHarness(t)
	h.publish(t, 1)
	g.waitHeld(t)
	h.publish(t, 1)
	waitFor(t, func() bool { return h.d.Forwarded.Value() == 2 })

	stopped := make(chan struct{})
	go func() {
		h.d.Stop() // idempotent with the cleanup Stop
		close(stopped)
	}()
	<-h.d.stop
	g.open()
	select {
	case <-stopped:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop did not return")
	}
	total := 0
	for _, size := range g.frameSizes() {
		total += size
	}
	if total != 2 {
		t.Errorf("frames %v carried %d publications by Stop, want 2", g.frameSizes(), total)
	}
}

// discardTransport accepts and drops every send, copying like TCP does.
type discardTransport struct{ transport.Transport }

func (discardTransport) Send(string, *wire.Envelope) error { return nil }
func (discardTransport) SendCopies() bool                  { return true }

// TestForwardFlushPassAllocatesNothing pins the batcher's cost per
// publication on a copying transport: buffering it, marking its destination
// dirty and running a flush pass reuse the entry slices, the dirty queue's
// backing array (traded with the pass's batch), the encode buffer and the
// envelope.
func TestForwardFlushPassAllocatesNothing(t *testing.T) {
	d, err := New(Config{ID: 100, Addr: "d1", Space: testSpace, Transport: discardTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	msg := core.NewMessage([]float64{10, 50}, nil)
	msg.ID = 1
	b := d.batcher
	var dbs []*destBatch
	pass := func() {
		b.add(1, "m1", 0, msg)
		dbs, _ = b.dirty.Take(dbs, 1)
		b.flush(dbs)
	}
	for i := 0; i < 2; i++ { // size the queue's array and the batch
		pass()
	}
	allocs := testing.AllocsPerRun(1000, pass)
	if allocs != 0 {
		t.Errorf("add + flush pass: %v allocs, want 0", allocs)
	}
	if got := d.ForwardBatches.Value(); got < 1000 {
		t.Errorf("ForwardBatches = %d, want one frame per pass", got)
	}
}

func TestForwardAckBatchClearsInflight(t *testing.T) {
	h := newHarnessWith(t, func(c *Config) {
		c.Persistent = true
	}, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))

	const n = 3
	for i := 0; i < n; i++ {
		msg := core.NewMessage([]float64{20, 50}, nil)
		h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	}
	waitFor(t, func() bool { return h.d.InflightLen() == n && len(h.batchEntries(t, "m1")) == n })

	entries := h.batchEntries(t, "m1")
	ids := make([]core.MessageID, 0, n)
	for _, e := range entries {
		ids = append(ids, e.Msg.ID)
	}
	h.send(t, wire.KindForwardAckBatch, 1, (&wire.ForwardAckBatchBody{IDs: ids}).Encode())
	waitFor(t, func() bool { return h.d.InflightLen() == 0 })
}

func TestDeliverBatchFiledIntoQueues(t *testing.T) {
	h := newHarness(t, "m1")
	msg := core.NewMessage([]float64{1, 2}, []byte("p"))
	msg.ID = 9
	db := &wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{
		{Subscriber: 7, Msg: msg, SubIDs: []core.SubscriptionID{70}},
		{Subscriber: 7, Msg: msg, SubIDs: []core.SubscriptionID{71}},
		{Subscriber: 8, Msg: msg, SubIDs: []core.SubscriptionID{80}},
	}}
	h.send(t, wire.KindDeliverBatch, 1, db.Encode())
	waitFor(t, func() bool { return h.d.Queues().Len(7) == 2 && h.d.Queues().Len(8) == 1 })
	polled := h.d.Queues().Poll(7, 10)
	if len(polled) != 2 || polled[0].Msg.ID != 9 {
		t.Errorf("subscriber 7 poll: %+v", polled)
	}
}
