package dispatcher

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/partition"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

var testSpace = core.UniformSpace(2, 100)

// harness wires one dispatcher to a mesh with scripted matcher endpoints:
// each runs a real gossiper (so the dispatcher discovers it) but records,
// rather than processes, all other traffic.
type harness struct {
	mesh *transport.Mesh
	d    *Dispatcher
	mu   sync.Mutex
	recv map[string][]*wire.Envelope
	gsps []*gossip.Gossiper
}

func newHarness(t *testing.T, matcherAddrs ...string) *harness {
	t.Helper()
	return newHarnessWith(t, nil, matcherAddrs...)
}

// newHarnessWith is newHarness with a config hook applied before New.
func newHarnessWith(t *testing.T, mutate func(*Config), matcherAddrs ...string) *harness {
	t.Helper()
	h := &harness{mesh: transport.NewMesh(0), recv: make(map[string][]*wire.Envelope)}
	for i, addr := range matcherAddrs {
		addr := addr
		ep := h.mesh.Endpoint(addr)
		g, err := gossip.New(gossip.Config{
			ID:         core.NodeID(i + 1),
			Addr:       addr,
			Role:       core.RoleMatcher,
			Transport:  ep,
			Seeds:      []string{"d1"},
			Interval:   25 * time.Millisecond,
			FailAfter:  300 * time.Millisecond,
			Generation: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
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
	cfg := Config{
		ID:             100,
		Addr:           "d1",
		Space:          testSpace,
		Transport:      h.mesh.Endpoint("d1"),
		GossipInterval: 25 * time.Millisecond,
		RecoveryDelay:  100 * time.Millisecond,
		FailAfter:      300 * time.Millisecond,
		Generation:     1,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	d, err := New(cfg)
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

// seedGossip waits until the dispatcher's gossip view resolves every listed
// matcher.
func (h *harness) seedGossip(t *testing.T, ids []core.NodeID, addrs []string) {
	t.Helper()
	waitFor(t, func() bool {
		for i, id := range ids {
			addr, ok := h.d.Gossiper().AddrOf(id)
			if !ok || addr != addrs[i] {
				return false
			}
		}
		return true
	})
}

var _ = fmt.Sprint // keep fmt imported for debug helpers

func (h *harness) received(addr string, kind wire.Kind) []*wire.Envelope {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*wire.Envelope
	for _, e := range h.recv[addr] {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

func (h *harness) request(t *testing.T, kind wire.Kind, body []byte) *wire.Envelope {
	t.Helper()
	ep := h.mesh.Endpoint("tester")
	resp, err := ep.Request("d1", &wire.Envelope{Kind: kind, Body: body}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func (h *harness) send(t *testing.T, kind wire.Kind, from core.NodeID, body []byte) {
	t.Helper()
	ep := h.mesh.Endpoint("tester2")
	if err := ep.Send("d1", &wire.Envelope{Kind: kind, From: from, Body: body}); err != nil {
		t.Fatal(err)
	}
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func table(t *testing.T, ids ...core.NodeID) *partition.Table {
	t.Helper()
	tab, err := partition.NewUniform(testSpace, ids)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestSubscribeInstallsOnMatchers(t *testing.T) {
	h := newHarness(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))

	sub := core.NewSubscription(7, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	resp := h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub, DeliverAddr: "cl"}).Encode())
	if resp.Kind != wire.KindSubscribeAck {
		t.Fatalf("resp: %v", resp.Kind)
	}
	ack, err := wire.DecodeSubscribeAck(resp.Body)
	if err != nil || ack.ID == 0 {
		t.Fatalf("ack: %+v %v", ack, err)
	}
	// The wide subscription overlaps both matchers' segments on both dims.
	waitFor(t, func() bool {
		return len(h.received("m1", wire.KindStore)) >= 2 && len(h.received("m2", wire.KindStore)) >= 2
	})
	st, err := wire.DecodeStore(h.received("m1", wire.KindStore)[0].Body)
	if err != nil || st.DeliverAddr != "cl" || st.Sub.ID != ack.ID {
		t.Fatalf("store: %+v %v", st, err)
	}
	if h.d.RegistrySize() != 1 {
		t.Errorf("registry = %d", h.d.RegistrySize())
	}
}

func TestSubscribeWithoutTableRejected(t *testing.T) {
	h := newHarness(t)
	sub := core.NewSubscription(7, []core.Range{{Low: 0, High: 1}, {Low: 0, High: 1}})
	resp := h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub}).Encode())
	if resp.Kind != wire.KindError {
		t.Fatalf("resp: %v", resp.Kind)
	}
}

func TestSubscribeInvalidRejected(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	sub := core.NewSubscription(7, []core.Range{{Low: 5, High: 1}, {Low: 0, High: 1}}) // inverted
	resp := h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub}).Encode())
	if resp.Kind != wire.KindError {
		t.Fatalf("resp: %v", resp.Kind)
	}
}

func TestPublishForwardsToCandidate(t *testing.T) {
	h := newHarness(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	msg := core.NewMessage([]float64{10, 90}, nil)
	h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	waitFor(t, func() bool {
		return len(h.received("m1", wire.KindForward))+len(h.received("m2", wire.KindForward)) == 1
	})
	if h.d.Forwarded.Value() != 1 || h.d.Published.Value() != 1 {
		t.Errorf("counters: %d %d", h.d.Forwarded.Value(), h.d.Published.Value())
	}
	// The forwarded message carries an assigned ID and timestamp.
	var env *wire.Envelope
	if es := h.received("m1", wire.KindForward); len(es) > 0 {
		env = es[0]
	} else {
		env = h.received("m2", wire.KindForward)[0]
	}
	fw, err := wire.DecodeForward(env.Body)
	if err != nil || fw.Msg.ID == 0 || fw.Msg.PublishedAt == 0 {
		t.Fatalf("forward: %+v %v", fw, err)
	}
}

func TestPublishWithoutTableDropped(t *testing.T) {
	h := newHarness(t)
	msg := core.NewMessage([]float64{10, 90}, nil)
	h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	waitFor(t, func() bool { return h.d.DroppedNoCandidate.Value() == 1 })
}

func TestLoadReportUpdatesView(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	loads := []forward.DimLoad{
		{Subs: 11, QueueLen: 3, ArrivalRate: 5, MatchRate: 9, ReportedAt: 111},
		{Subs: 22, QueueLen: 0, ArrivalRate: 0, MatchRate: 1, ReportedAt: 111},
	}
	h.send(t, wire.KindLoadReport, 1, (&wire.LoadReportBody{Loads: loads}).Encode())
	waitFor(t, func() bool {
		l, ok := h.d.Load(1, 0)
		return ok && l.Subs == 11 && l.QueueLen == 3
	})
	if _, ok := h.d.Load(1, 9); ok {
		t.Error("out-of-range dim reported")
	}
	if _, ok := h.d.Load(42, 0); ok {
		t.Error("unknown node reported")
	}
}

func TestPendingCountsFoldedIntoLoad(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	loads := []forward.DimLoad{{MatchRate: 100, ReportedAt: 1}, {MatchRate: 100, ReportedAt: 1}}
	h.send(t, wire.KindLoadReport, 1, (&wire.LoadReportBody{Loads: loads}).Encode())
	waitFor(t, func() bool { _, ok := h.d.Load(1, 0); return ok })
	// Publish a few messages; each forward increments pending for (1, dim).
	for i := 0; i < 3; i++ {
		msg := core.NewMessage([]float64{10, 90}, nil)
		h.send(t, wire.KindPublish, 0, (&wire.PublishBody{Msg: msg}).Encode())
	}
	waitFor(t, func() bool { return h.d.Forwarded.Value() == 3 })
	total := 0.0
	for dim := 0; dim < 2; dim++ {
		if l, ok := h.d.Load(1, dim); ok {
			total += l.PendingLocal
		}
	}
	if total < 3 {
		t.Errorf("pending total = %g, want >= 3", total)
	}
	// A fresh report resets pending.
	h.send(t, wire.KindLoadReport, 1, (&wire.LoadReportBody{Loads: loads}).Encode())
	waitFor(t, func() bool {
		l, _ := h.d.Load(1, 0)
		l2, _ := h.d.Load(1, 1)
		return l.PendingLocal == 0 && l2.PendingLocal == 0
	})
}

func TestDeliverQueuedAndPolled(t *testing.T) {
	h := newHarness(t)
	msg := core.NewMessage([]float64{1, 2}, []byte("p"))
	msg.ID = 9
	d := &wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{
		{Subscriber: 5, Msg: msg, SubIDs: []core.SubscriptionID{3}}}}
	h.send(t, wire.KindDeliverBatch, 1, d.Encode())
	waitFor(t, func() bool { return h.d.Queues().Len(5) == 1 })

	resp := h.request(t, wire.KindPoll, (&wire.PollBody{Subscriber: 5, Max: 10}).Encode())
	if resp.Kind != wire.KindPollResponse {
		t.Fatalf("resp: %v", resp.Kind)
	}
	pr, err := wire.DecodePollResponse(resp.Body)
	if err != nil || len(pr.Deliveries) != 1 || pr.Deliveries[0].Msg.ID != 9 {
		t.Fatalf("poll: %+v %v", pr, err)
	}
}

func TestJoinSplitsAndPublishesTable(t *testing.T) {
	h := newHarness(t, "m1", "m2", "m3")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	h.d.SetTable(table(t, 1, 2))
	resp := h.request(t, wire.KindJoin, (&wire.JoinBody{ID: 3, Addr: "m3"}).Encode())
	ack, err := wire.DecodeJoinAck(resp.Body)
	if err != nil || ack.Err != "" {
		t.Fatalf("ack: %+v %v", ack, err)
	}
	newTab, err := partition.Decode(ack.Table)
	if err != nil || newTab.N() != 3 || !newTab.HasMatcher(3) {
		t.Fatalf("table: %v %v", newTab, err)
	}
	// Handover instructions reached the victims.
	waitFor(t, func() bool {
		return len(h.received("m1", wire.KindHandover))+len(h.received("m2", wire.KindHandover)) == 2
	})
	if h.d.Table().Version() != newTab.Version() {
		t.Error("dispatcher did not adopt the new table")
	}
}

func TestTableRequestServed(t *testing.T) {
	h := newHarness(t, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	h.d.SetTable(table(t, 1))
	resp := h.request(t, wire.KindTableRequest, nil)
	if resp.Kind != wire.KindTableResponse {
		t.Fatalf("resp: %v", resp.Kind)
	}
	b, err := wire.DecodeTableResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := partition.Decode(b.Table); err != nil {
		t.Fatal(err)
	}
}

func TestSetTableIgnoresStale(t *testing.T) {
	h := newHarness(t, "m1", "m2")
	h.seedGossip(t, []core.NodeID{1, 2}, []string{"m1", "m2"})
	t2, _, err := table(t, 1, 2).Join(9, []core.NodeID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.d.SetTable(t2)
	h.d.SetTable(table(t, 1, 2)) // stale v1
	if h.d.Table().Version() != t2.Version() {
		t.Error("stale table adopted")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// newMesh and newTestGossiper are shared helpers for harness variants.
func newMesh(t *testing.T) *transport.Mesh {
	t.Helper()
	return transport.NewMesh(0)
}

func newTestGossiper(t *testing.T, tr transport.Transport, id core.NodeID, addr string) *gossip.Gossiper {
	t.Helper()
	g, err := gossip.New(gossip.Config{
		ID: id, Addr: addr, Role: core.RoleMatcher, Transport: tr,
		Seeds: []string{"d1"}, Interval: 25 * time.Millisecond,
		FailAfter: 300 * time.Millisecond, Generation: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	return g
}
