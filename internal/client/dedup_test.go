package client

import (
	"sync"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/edge"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// dedupClient builds a direct-mode client with the given window, recording
// every application callback.
func dedupClient(t *testing.T, mesh *transport.Mesh, window int) (*Client, func() []core.MessageID) {
	t.Helper()
	var mu sync.Mutex
	var got []core.MessageID
	c, err := New(Config{
		Transport:      mesh.Endpoint("c1"),
		DispatcherAddr: "d1",
		Subscriber:     1,
		ListenAddr:     "c1-deliver",
		DedupWindow:    window,
		OnDeliver: func(msg *core.Message, _ []core.SubscriptionID) {
			mu.Lock()
			got = append(got, msg.ID)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	return c, func() []core.MessageID {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.MessageID(nil), got...)
	}
}

func deliver(t *testing.T, mesh *transport.Mesh, id core.MessageID) {
	t.Helper()
	msg := &core.Message{ID: id, Attrs: []float64{1}, Payload: []byte("x")}
	body := (&wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{
		{Msg: msg, SubIDs: []core.SubscriptionID{1}}}}).Encode()
	if err := mesh.Endpoint("m1").Send("c1-deliver",
		&wire.Envelope{Kind: wire.KindDeliverBatch, Body: body}); err != nil {
		t.Fatal(err)
	}
}

func waitDeliveries(t *testing.T, fetch func() []core.MessageID, n int) []core.MessageID {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if got := fetch(); len(got) >= n {
			return got
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d deliveries (have %d)", n, len(fetch()))
	return nil
}

// TestDedupSuppressesDuplicateDeliver: an at-least-once cluster can push the
// same publication twice (lost ack, restarted node); the window must hand it
// to the application exactly once.
func TestDedupSuppressesDuplicateDeliver(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	c, fetch := dedupClient(t, mesh, 8)

	deliver(t, mesh, 42)
	deliver(t, mesh, 42) // redelivery
	deliver(t, mesh, 43)
	got := waitDeliveries(t, fetch, 2)
	// Give a straggling duplicate callback a moment to (wrongly) land.
	time.Sleep(20 * time.Millisecond)
	got = fetch()
	if len(got) != 2 || got[0] != 42 || got[1] != 43 {
		t.Fatalf("application saw %v, want [42 43]", got)
	}
	if n := c.SuppressedDuplicates(); n != 1 {
		t.Fatalf("SuppressedDuplicates = %d, want 1", n)
	}
}

// TestDedupWindowEviction: once DedupWindow distinct newer IDs pass, an old
// ID falls out of the window and a late duplicate is (correctly, per the
// bounded-memory contract) delivered again.
func TestDedupWindowEviction(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	c, fetch := dedupClient(t, mesh, 2)

	deliver(t, mesh, 1)
	deliver(t, mesh, 2)
	deliver(t, mesh, 3) // evicts 1 from the 2-slot window
	deliver(t, mesh, 1) // no longer remembered: delivered again
	got := waitDeliveries(t, fetch, 4)
	want := []core.MessageID{1, 2, 3, 1}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("application saw %v, want %v", got, want)
		}
	}
	if n := c.SuppressedDuplicates(); n != 0 {
		t.Fatalf("SuppressedDuplicates = %d, want 0", n)
	}
}

// TestDedupAbsorbsResumeReplay (DedupWindow x resume): an edge session dies
// with deliveries sent but unacked; resuming from the persisted ack state
// replays them, and the carried-over suppression window must hand the
// application each publication exactly once.
func TestDedupAbsorbsResumeReplay(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()

	// Minimal upstream dispatcher: acks the edge's aggregated subscribe.
	var subID uint64
	if _, err := mesh.Endpoint("disp").Listen("disp", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind != wire.KindSubscribe {
			return nil
		}
		subID++
		return &wire.Envelope{Kind: wire.KindSubscribeAck,
			Body: (&wire.SubscribeAckBody{ID: core.SubscriptionID(subID)}).Encode()}
	}); err != nil {
		t.Fatal(err)
	}

	e, err := edge.New(edge.Config{
		ID:             3,
		Addr:           "edge",
		Space:          core.UniformSpace(1, 100),
		Transport:      mesh.Endpoint("edge"),
		DispatcherAddr: "disp",
		ResumeWindow:   64,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	defer e.Stop()

	var mu sync.Mutex
	var got []core.MessageID
	onDeliver := func(msg *core.Message, _ []core.SubscriptionID) {
		mu.Lock()
		got = append(got, msg.ID)
		mu.Unlock()
	}
	fetch := func() []core.MessageID {
		mu.Lock()
		defer mu.Unlock()
		return append([]core.MessageID(nil), got...)
	}
	s1, err := DialEdge(EdgeConfig{
		Transport:   mesh.Endpoint("es1"),
		EdgeAddr:    "edge",
		Subscriber:  1,
		ListenAddr:  "es1-deliver",
		OnDeliver:   onDeliver,
		DedupWindow: 8,
		AckEvery:    1000, // acks in this test are explicit
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Subscribe([]core.Range{{Low: 0, High: 100}}); err != nil {
		t.Fatal(err)
	}

	// Six publications from a fake matcher; the client acks only the first
	// three before the connection "dies".
	push := func(id core.MessageID) {
		msg := &core.Message{ID: id, Attrs: []float64{50}, Payload: []byte("x")}
		body := (&wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{{Msg: msg}}}).Encode()
		if err := mesh.Endpoint("m1").Send("edge",
			&wire.Envelope{Kind: wire.KindDeliverBatch, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	for id := core.MessageID(1); id <= 6; id++ {
		push(id)
	}
	waitDeliveries(t, fetch, 6)
	if err := mesh.Endpoint("es1").Send("edge", &wire.Envelope{Kind: wire.KindSessionAck,
		Body: (&wire.SessionAckBody{Token: s1.Token(), Seq: 3}).Encode()}); err != nil {
		t.Fatal(err)
	}
	// Connection loss: the edge detaches the session; 4..6 sit unacked in
	// its resume ring.
	deadline := time.Now().Add(2 * time.Second)
	for !e.Detach(s1.Token()) {
		if time.Now().After(deadline) {
			t.Fatal("detach never succeeded")
		}
		time.Sleep(time.Millisecond)
	}

	// Resume from the acked sequence (what a restarted client would have
	// persisted), understating what the application actually saw: the edge
	// replays 4..6, all already delivered.
	s2, err := s1.Resume(EdgeConfig{
		Transport:  mesh.Endpoint("es1"),
		EdgeAddr:   "edge",
		Subscriber: 1,
		ListenAddr: "es1-deliver-b",
		OnDeliver:  onDeliver,
		LastSeq:    3,
		AckEvery:   1000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if s2.ReplayLost() != 0 {
		t.Fatalf("replay lost = %d, want 0 within the resume window", s2.ReplayLost())
	}
	waitSuppressed := time.Now().Add(2 * time.Second)
	for s2.SuppressedDuplicates() < 3 {
		if time.Now().After(waitSuppressed) {
			t.Fatalf("suppressed %d replayed duplicates, want 3", s2.SuppressedDuplicates())
		}
		time.Sleep(2 * time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let any wrong extra callback land
	if ids := fetch(); len(ids) != 6 {
		t.Fatalf("application saw %v (%d deliveries), want each of 1..6 exactly once", ids, len(ids))
	}
	// The resumed session is live: a fresh publication still arrives.
	push(7)
	waitDeliveries(t, fetch, 7)
	if ids := fetch(); ids[6] != 7 {
		t.Fatalf("post-resume delivery %v, want 7", ids[6])
	}
}

// TestDedupDisabledByDefault: with DedupWindow zero every delivery reaches
// the application, duplicates included.
func TestDedupDisabledByDefault(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	_, fetch := dedupClient(t, mesh, 0)

	deliver(t, mesh, 7)
	deliver(t, mesh, 7)
	got := waitDeliveries(t, fetch, 2)
	if got[0] != 7 || got[1] != 7 {
		t.Fatalf("application saw %v, want [7 7]", got)
	}
}
