package dispatcher

import (
	"fmt"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// failTransport fails every ForwardBatch frame sent to one address and
// passes all other traffic through.
type failTransport struct {
	transport.Transport
	fail string
}

func (f *failTransport) Send(addr string, env *wire.Envelope) error {
	if addr == f.fail && env.Kind == wire.KindForwardBatch {
		return fmt.Errorf("%w: %s", transport.ErrUnreachable, addr)
	}
	return f.Transport.Send(addr, env)
}

// newTwoMatcherHarness starts a harness whose transport fails forwards to
// m1, the matcher every publication prefers: with no load reports, ranking
// ties break towards the lower node ID.
func newTwoMatcherHarness(t *testing.T, mutate func(*Config)) *harness {
	t.Helper()
	h := newHarnessWith(t, func(c *Config) {
		c.Transport = &failTransport{Transport: c.Transport, fail: "m1"}
		if mutate != nil {
			mutate(c)
		}
	}, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	return h
}

// publishSplit publishes n publications at [10, 40), a point whose
// dimension 0 maps to matcher 1 and dimension 1 to matcher 2.
func publishSplit(t *testing.T, h *harness, n int) {
	t.Helper()
	for i := 0; i < n; i++ {
		msg := core.NewMessage([]float64{10, 40}, nil)
		h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	}
}

// A frame the transport cannot send re-routes its publications: a
// non-persistent publication whose forward to m1 fails reaches m2.
func TestRerouteOnSendFailure(t *testing.T) {
	h := newTwoMatcherHarness(t, nil)
	publishSplit(t, h, 1)
	waitFor(t, func() bool { return len(h.batchEntries(t, "m2")) == 1 })

	if n := h.d.Rerouted.Value(); n != 1 {
		t.Errorf("Rerouted = %d, want 1", n)
	}
	if n := h.d.BusyReceived.Value(); n != 0 {
		t.Errorf("BusyReceived = %d, want 0: a failed send is not a busy NACK", n)
	}
	if n := h.d.DroppedNoCandidate.Value(); n != 0 {
		t.Errorf("DroppedNoCandidate = %d, want 0", n)
	}
	if n := len(h.received("m1", wire.KindForwardBatch)); n != 0 {
		t.Errorf("m1 received %d frames through a failing transport", n)
	}
}

// A publication the dispatcher does not track cannot be re-routed when its
// frame fails; the loss is counted.
func TestRerouteOnSendFailureUntrackedCountsDrop(t *testing.T) {
	h := newTwoMatcherHarness(t, func(c *Config) { c.RetryBudget = -1 })
	publishSplit(t, h, 1)
	waitFor(t, func() bool { return h.d.DroppedNoCandidate.Value() == 1 })

	if n := h.d.Rerouted.Value(); n != 0 {
		t.Errorf("Rerouted = %d, want 0 with re-routing disabled", n)
	}
	if n := len(h.batchEntries(t, "m2")); n != 0 {
		t.Errorf("m2 received %d publications, want 0", n)
	}
}

// The route entry a busy NACK re-routes from exists before the frame can
// leave. With the flusher held, the publication that fills m1's batch ships
// it inline, inside its own forwardOnce, and m1 NACKs the frame before that
// call returns; every publication must still be re-routed to m2.
func TestRerouteOnEarlyBusyNack(t *testing.T) {
	busy := &earlyAckTransport{busy: true}
	g := newGate()
	h := newHarnessWith(t, func(c *Config) {
		busy.Transport = c.Transport
		c.Transport = busy
		g.wrap(c)
	}, "m1", "m2")
	t.Cleanup(g.open)
	busy.ack = h.d.handle
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))

	publishSplit(t, h, 1)
	g.waitHeld(t)
	publishSplit(t, h, maxBatchCount) // fills m1's open batch: shipped inline
	// The inline frame is NACKed inside its Send; only then may the flusher
	// run again.
	waitFor(t, func() bool { return h.d.BusyReceived.Value() == maxBatchCount })
	g.open()

	const n = maxBatchCount + 1
	waitFor(t, func() bool { return len(h.batchEntries(t, "m2")) >= n })
	seen := make(map[core.MessageID]bool, n)
	for _, e := range h.batchEntries(t, "m2") {
		seen[e.Msg.ID] = true
	}
	if len(seen) != n {
		t.Errorf("m2 received %d distinct publications, want %d", len(seen), n)
	}
	if got := h.d.BusyReceived.Value(); got != n {
		t.Errorf("BusyReceived = %d, want %d", got, n)
	}
	if got := h.d.Rerouted.Value(); got != n {
		t.Errorf("Rerouted = %d, want %d", got, n)
	}
}
