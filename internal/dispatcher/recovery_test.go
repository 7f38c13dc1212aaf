package dispatcher

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/partition"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

func TestUnsubscribeFansOutToMatchers(t *testing.T) {
	h := newHarness(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	sub := core.NewSubscription(7, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	resp := h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub}).Encode())
	ack, err := wire.DecodeSubscribeAck(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	h.send(t, wire.KindUnsubscribe, 0, (&wire.UnsubscribeBody{ID: ack.ID}).Encode())
	waitFor(t, func() bool {
		return len(h.received("m1", wire.KindUnsubscribe)) == 1 &&
			len(h.received("m2", wire.KindUnsubscribe)) == 1
	})
	if h.d.RegistrySize() != 0 {
		t.Errorf("registry = %d after unsubscribe", h.d.RegistrySize())
	}
}

func TestFailureRecoveryShrinksTable(t *testing.T) {
	h := newHarness(t, "m1", "m2", "m3")
	h.seedGossip(t, []core.NodeID{1, 2, 3}, []string{"m1", "m2", "m3"})
	h.d.SetTable(table(t, 1, 2, 3))
	// Register a subscription so recovery has something to reconcile.
	sub := core.NewSubscription(7, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub, DeliverAddr: "cl"}).Encode())
	storesBefore := len(h.received("m2", wire.KindStore))

	// Crash matcher 3: stop its gossiper and cut it off; the dispatcher is
	// the lowest-ID (only) dispatcher, so it leads the recovery.
	h.gsps[2].Stop()
	h.mesh.SetDown("m3", true)
	waitFor(t, func() bool {
		tab := h.d.Table()
		return tab != nil && tab.Version() >= 2 && !tab.HasMatcher(3)
	})
	if h.d.Table().N() != 2 {
		t.Fatalf("table size = %d after recovery", h.d.Table().N())
	}
	// Reconcile re-installed the registry onto the survivors.
	waitFor(t, func() bool {
		return len(h.received("m2", wire.KindStore)) > storesBefore
	})
}

func TestTransientFailureDoesNotShrinkTable(t *testing.T) {
	h := newHarness(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	// Blip matcher 2's connectivity for less than FailAfter+RecoveryDelay.
	h.mesh.SetDown("m2", true)
	time.Sleep(150 * time.Millisecond)
	h.mesh.SetDown("m2", false)
	time.Sleep(600 * time.Millisecond)
	if h.d.Table().N() != 2 {
		t.Fatalf("transient blip shrank the table to %d", h.d.Table().N())
	}
}

func TestPullTableAdoptsNewer(t *testing.T) {
	h := newHarnessWithPull(t, 200*time.Millisecond)
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	// The scripted matcher serves a v2 table on pull; the dispatcher has no
	// table at all and must adopt it.
	t1 := table(t, 1)
	t2, _, err := t1.Join(9, []core.NodeID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.setServedTable(t2)
	waitFor(t, func() bool {
		tab := h.d.Table()
		return tab != nil && tab.Version() == t2.Version()
	})
	if h.d.PullBytes.Value() == 0 {
		t.Error("pull bytes not accounted")
	}
}

func TestAccessorsAndString(t *testing.T) {
	h := newHarness(t)
	if h.d.ID() != 100 || h.d.Addr() != "d1" {
		t.Errorf("ID/Addr: %v %q", h.d.ID(), h.d.Addr())
	}
	if h.d.String() == "" {
		t.Error("String empty")
	}
	if !h.d.isLeader() {
		t.Error("sole dispatcher must lead")
	}
}

func TestPollEmptyQueue(t *testing.T) {
	h := newHarness(t)
	resp := h.request(t, wire.KindPoll, (&wire.PollBody{Subscriber: 9, Max: 5}).Encode())
	if resp.Kind != wire.KindPollResponse {
		t.Fatalf("resp: %v", resp.Kind)
	}
	pr, err := wire.DecodePollResponse(resp.Body)
	if err != nil || len(pr.Deliveries) != 0 {
		t.Fatalf("poll: %+v %v", pr, err)
	}
}

func TestBadBodiesIgnored(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	h.send(t, wire.KindPublish, 0, []byte{1})
	h.send(t, wire.KindLoadReport, 1, []byte{2, 3})
	h.send(t, wire.KindDeliverBatch, 1, []byte{4})
	h.send(t, wire.KindUnsubscribe, 0, []byte{5})
	resp := h.request(t, wire.KindPoll, []byte{6})
	if resp.Kind != wire.KindError {
		t.Fatalf("bad poll body: %v", resp.Kind)
	}
	resp = h.request(t, wire.KindJoin, []byte{7})
	if resp.Kind != wire.KindError {
		t.Fatalf("bad join body: %v", resp.Kind)
	}
	resp = h.request(t, wire.KindSubscribe, []byte{8})
	if resp.Kind != wire.KindError {
		t.Fatalf("bad subscribe body: %v", resp.Kind)
	}
	time.Sleep(100 * time.Millisecond)
	if h.d.Published.Value() != 0 {
		t.Error("garbage publish accepted")
	}
}

// newHarnessWithPull builds a harness whose scripted matcher endpoint
// answers table requests with a configurable table, and whose dispatcher
// pulls at the given interval.
type pullHarness struct {
	*harness
	servedMu chan *partition.Table // 1-buffered mailbox holding the current table
}

func newHarnessWithPull(t *testing.T, interval time.Duration) *pullHarness {
	t.Helper()
	ph := &pullHarness{servedMu: make(chan *partition.Table, 1)}
	h := &harness{mesh: newMesh(t), recv: make(map[string][]*wire.Envelope)}
	ph.harness = h
	// Scripted matcher with gossip + table serving.
	ep := h.mesh.Endpoint("m1")
	g := newTestGossiper(t, ep, 1, "m1")
	h.gsps = append(h.gsps, g)
	if _, err := ep.Listen("m1", func(env *wire.Envelope) *wire.Envelope {
		switch env.Kind {
		case wire.KindGossip:
			return g.HandleGossip(env)
		case wire.KindTableRequest:
			select {
			case tab := <-ph.servedMu:
				ph.servedMu <- tab
				return &wire.Envelope{Kind: wire.KindTableResponse, From: 1,
					Body: (&wire.TableResponseBody{Table: tab.Encode()}).Encode()}
			default:
				return &wire.Envelope{Kind: wire.KindError, From: 1,
					Body: (&wire.ErrorBody{Text: "no table"}).Encode()}
			}
		}
		h.mu.Lock()
		h.recv["m1"] = append(h.recv["m1"], env)
		h.mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	d, err := New(Config{
		ID: 100, Addr: "d1", Space: testSpace, Transport: h.mesh.Endpoint("d1"),
		GossipInterval: 25 * time.Millisecond, RecoveryDelay: 100 * time.Millisecond,
		FailAfter: 300 * time.Millisecond, TablePullInterval: interval, Generation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	h.d = d
	g.Start()
	t.Cleanup(func() {
		g.Stop()
		d.Stop()
		h.mesh.Close()
	})
	return ph
}

func (ph *pullHarness) setServedTable(tab *partition.Table) {
	select {
	case <-ph.servedMu:
	default:
	}
	ph.servedMu <- tab
}

// A matcher that accepts forwards but never acks must trigger
// retransmission to a different candidate under persistence.
func TestRetransmitOnMissingAck(t *testing.T) {
	h := newHarnessPersistent(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	// Attribute values chosen so the two candidate matchers differ (with
	// segment rotation, [10, 40) maps dim 0 to matcher 1 and dim 1 to
	// matcher 2).
	msg := core.NewMessage([]float64{10, 40}, nil)
	h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	waitFor(t, func() bool { return h.d.Forwarded.Value() >= 1 })
	if h.d.InflightLen() != 1 {
		t.Fatalf("inflight = %d, want 1", h.d.InflightLen())
	}
	// No ack arrives: the dispatcher must retransmit to the other matcher.
	waitFor(t, func() bool {
		return len(h.batchEntries(t, "m1"))+len(h.batchEntries(t, "m2")) >= 2
	})
	if h.d.Retransmits.Value() == 0 {
		t.Fatal("no retransmission recorded")
	}
	m1, m2 := h.batchEntries(t, "m1"), h.batchEntries(t, "m2")
	if len(m1) == 0 || len(m2) == 0 {
		t.Fatal("retransmission reused the same matcher")
	}
	// An ack clears the inflight entry and stops retransmission.
	id := m1[0].Msg.ID
	h.send(t, wire.KindForwardAckBatch, 1, (&wire.ForwardAckBatchBody{IDs: []core.MessageID{id}}).Encode())
	waitFor(t, func() bool { return h.d.InflightLen() == 0 })
}

// newHarnessPersistent is newHarness with persistence and a fast retry.
func newHarnessPersistent(t *testing.T, matcherAddrs ...string) *harness {
	t.Helper()
	h := &harness{mesh: newMesh(t), recv: make(map[string][]*wire.Envelope)}
	for i, addr := range matcherAddrs {
		addr := addr
		ep := h.mesh.Endpoint(addr)
		g := newTestGossiper(t, ep, core.NodeID(i+1), addr)
		h.gsps = append(h.gsps, g)
		if _, err := ep.Listen(addr, func(env *wire.Envelope) *wire.Envelope {
			if env.Kind == wire.KindGossip {
				return g.HandleGossip(env)
			}
			h.mu.Lock()
			h.recv[addr] = append(h.recv[addr], env)
			h.mu.Unlock()
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	d, err := New(Config{
		ID: 100, Addr: "d1", Space: testSpace, Transport: h.mesh.Endpoint("d1"),
		GossipInterval: 25 * time.Millisecond, RecoveryDelay: 100 * time.Millisecond,
		FailAfter: 300 * time.Millisecond, Generation: 1,
		Persistent: true, RetryInterval: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Start(); err != nil {
		t.Fatal(err)
	}
	h.d = d
	for _, g := range h.gsps {
		g.Start()
	}
	t.Cleanup(func() {
		for _, g := range h.gsps {
			g.Stop()
		}
		d.Stop()
		h.mesh.Close()
	})
	return h
}

// earlyAckTransport has matcher 1 (m1) answer each ForwardBatch frame
// synchronously, inside the Send that carries it: the tightest answer/track
// interleaving a real transport can produce. The answer acks every entry,
// or with busy set NACKs every entry.
type earlyAckTransport struct {
	transport.Transport
	ack  func(*wire.Envelope) *wire.Envelope
	busy bool
}

func (e *earlyAckTransport) Send(addr string, env *wire.Envelope) error {
	if err := e.Transport.Send(addr, env); err != nil {
		return err
	}
	if addr != "m1" || env.Kind != wire.KindForwardBatch {
		return nil
	}
	if b, err := wire.DecodeForwardBatch(env.Body); err == nil {
		ack := wire.ForwardAckBatchBody{}
		for _, fe := range b.Entries {
			if e.busy {
				ack.Busy = append(ack.Busy, wire.BusyEntry{ID: fe.Msg.ID, Dim: fe.Dim, QueueLen: 99})
			} else {
				ack.IDs = append(ack.IDs, fe.Msg.ID)
			}
		}
		e.ack(&wire.Envelope{Kind: wire.KindForwardAckBatch, From: 1, Body: ack.Encode()})
	}
	return nil
}

// An ack that beats the publish handler back from forwardOnce must still
// settle the publication: the in-flight entry is registered before the frame
// leaves, so nothing is left to retransmit.
func TestEarlyAckSettlesInflight(t *testing.T) {
	tr := &earlyAckTransport{}
	h := newHarnessWith(t, func(c *Config) {
		c.Persistent = true
		c.RetryInterval = 50 * time.Millisecond
		tr.Transport = c.Transport
		c.Transport = tr
	}, "m1")
	tr.ack = h.d.handle
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))

	msg := core.NewMessage([]float64{50, 50}, nil)
	h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	waitFor(t, func() bool { return h.d.Forwarded.Value() == 1 })
	time.Sleep(4 * 50 * time.Millisecond) // several retry intervals
	if n := h.d.InflightLen(); n != 0 {
		t.Fatalf("inflight = %d after an early ack, want 0", n)
	}
	if n := h.d.Retransmits.Value(); n != 0 {
		t.Fatalf("%d retransmits of an already-acked publication", n)
	}
	if n := len(h.batchEntries(t, "m1")); n != 1 {
		t.Fatalf("matcher saw %d forwards, want 1", n)
	}
}
