package dispatcher

import (
	"fmt"
	"testing"
	"time"

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

// A best-effort publication that every candidate NACKs busy is lost where
// its re-routes end, whether its budget runs out (budget 1) or its untried
// candidates do (budget 2): the loss is counted once and the entry deleted.
func TestRerouteDeadEndCountsLoss(t *testing.T) {
	for _, budget := range []int{1, 2} {
		t.Run(fmt.Sprintf("budget=%d", budget), func(t *testing.T) {
			busy := &earlyAckTransport{busy: true, all: true}
			h := newHarnessWith(t, func(c *Config) {
				c.RetryBudget = budget
				busy.Transport = c.Transport
				c.Transport = busy
			}, "m1", "m2")
			busy.ack = h.d.handle
			h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
			h.d.SetTable(table(t, 1, 2))

			publishSplit(t, h, 1)
			waitFor(t, func() bool { return h.d.DroppedNoCandidate.Value() == 1 })
			if n := h.d.InflightLen(); n != 0 {
				t.Errorf("InflightLen = %d after the loss, want 0", n)
			}
			if n := h.d.BusyReceived.Value(); n != 2 {
				t.Errorf("BusyReceived = %d, want 2 (m1, then m2)", n)
			}
			if n := h.d.Rerouted.Value(); n != 1 {
				t.Errorf("Rerouted = %d, want 1", n)
			}
			time.Sleep(20 * time.Millisecond)
			if n := h.d.DroppedNoCandidate.Value(); n != 1 {
				t.Errorf("DroppedNoCandidate = %d, want the loss counted once", n)
			}
		})
	}
}

// A best-effort in-flight entry dies on its ack. One whose matcher never
// answers is forgotten two retry intervals after its publication and is
// never sent again.
func TestInflightBestEffortDiesOnAckOrExpiry(t *testing.T) {
	const ri = 100 * time.Millisecond
	h := newHarnessWith(t, func(c *Config) { c.RetryInterval = ri }, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))

	h.publish(t, 1)
	waitFor(t, func() bool { return len(h.batchEntries(t, "m1")) == 1 })
	if n := h.d.InflightLen(); n != 1 {
		t.Fatalf("InflightLen = %d after a best-effort forward, want 1", n)
	}
	id := h.batchEntries(t, "m1")[0].Msg.ID
	h.send(t, wire.KindForwardAckBatch, 1, (&wire.ForwardAckBatchBody{IDs: []core.MessageID{id}}).Encode())
	waitFor(t, func() bool { return h.d.InflightLen() == 0 })

	start := time.Now()
	h.publish(t, 1)
	waitFor(t, func() bool { return h.d.InflightLen() == 1 })
	waitFor(t, func() bool { return h.d.InflightLen() == 0 })
	if el := time.Since(start); el < 2*ri {
		t.Errorf("entry forgotten %v after its publication, want at least %v", el, 2*ri)
	}
	time.Sleep(2 * ri)
	if n := len(h.batchEntries(t, "m1")); n != 2 {
		t.Errorf("m1 received %d forwards, want 2: a best-effort entry is never re-sent", n)
	}
	if n := h.d.Retransmits.Value(); n != 0 {
		t.Errorf("Retransmits = %d, want 0", n)
	}
	if n := h.d.DroppedNoCandidate.Value(); n != 0 {
		t.Errorf("DroppedNoCandidate = %d, want 0: an unanswered forward may have been delivered", n)
	}
}

// AdmissionLimit counts every tracked forward: persistent or not, a
// dispatcher whose matcher never acks admits exactly the limit's worth of
// publications.
func TestInflightAdmissionLimitSameInBothModes(t *testing.T) {
	const lim = 3
	for _, persistent := range []bool{true, false} {
		t.Run(fmt.Sprintf("persistent=%v", persistent), func(t *testing.T) {
			h := newHarnessWith(t, func(c *Config) {
				c.Persistent = persistent
				c.AdmissionLimit = lim
				c.RetryInterval = time.Minute
			}, "m1")
			h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
			h.d.SetTable(table(t, 1))

			admitted := 0
			for i := 0; i < lim+2; i++ {
				msg := core.NewMessage([]float64{50, 50}, nil)
				if h.request(t, wire.KindPublishReq, (&wire.PublishBody{Msg: msg}).Encode()).Kind == wire.KindPublishAck {
					admitted++
				}
			}
			if admitted != lim {
				t.Errorf("admitted %d publications, want %d", admitted, lim)
			}
			if n := h.d.Overloaded.Value(); n != 2 {
				t.Errorf("Overloaded = %d, want 2", n)
			}
			if n := h.d.InflightLen(); n != lim {
				t.Errorf("InflightLen = %d, want %d", n, lim)
			}
		})
	}
}
