package matcher

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/partition"
	"bluedove/internal/wire"
)

func mustTable(t *testing.T, ids ...core.NodeID) *partition.Table {
	t.Helper()
	tab, err := partition.NewUniform(testSpace, ids)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestAdoptTableAndServeRequests(t *testing.T) {
	h := newHarness(t)
	if h.m.Table() != nil {
		t.Fatal("table before any gossip")
	}
	// No table yet: requests answer with an error.
	ep := h.mesh.Endpoint("req")
	resp, err := ep.Request("m1", &wire.Envelope{Kind: wire.KindTableRequest}, time.Second)
	if err != nil || resp.Kind != wire.KindError {
		t.Fatalf("pre-table request: %v %v", resp, err)
	}
	// Publish a table through the matcher's own gossip state; the table
	// loop adopts the highest version it sees.
	tab := mustTable(t, 1, 2)
	h.m.Gossiper().SetState(TableKey, tab.Encode(), tab.Version())
	waitFor(t, func() bool { return h.m.Table() != nil })
	if h.m.Table().Version() != tab.Version() {
		t.Fatalf("adopted v%d", h.m.Table().Version())
	}
	resp, err = ep.Request("m1", &wire.Envelope{Kind: wire.KindTableRequest}, time.Second)
	if err != nil || resp.Kind != wire.KindTableResponse {
		t.Fatalf("post-table request: %v %v", resp, err)
	}
	body, err := wire.DecodeTableResponse(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	got, err := partition.Decode(body.Table)
	if err != nil || got.Version() != tab.Version() {
		t.Fatalf("served table: %v %v", got, err)
	}
	// Garbage state must be ignored without breaking adoption.
	h.m.Gossiper().SetState(TableKey, []byte{1, 2, 3}, tab.Version()+1)
	time.Sleep(200 * time.Millisecond)
	if h.m.Table().Version() != tab.Version() {
		t.Error("garbage table adopted")
	}
}

func TestPruneAfterTableChange(t *testing.T) {
	h := newHarness(t)
	// Matcher 1 initially owns everything (single-matcher table).
	t1 := mustTable(t, 1)
	h.m.Gossiper().SetState(TableKey, t1.Encode(), t1.Version())
	waitFor(t, func() bool { return h.m.Table() != nil })

	// Store two narrow subscriptions on dim 0: one in the lower half, one
	// in the upper half of the dimension.
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 5, 20), DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(2, 80, 95), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })

	// A join splits matcher 1: the new matcher 9 takes the upper half of
	// every dimension, so subscription 2 no longer overlaps matcher 1's
	// dim-0 segment and must be pruned after the grace period.
	t2, _, err := t1.Join(9, []core.NodeID{1, 1})
	if err != nil {
		t.Fatal(err)
	}
	h.m.Gossiper().SetState(TableKey, t2.Encode(), t2.Version())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	// The survivor is the lower-half subscription.
	msg := core.NewMessage([]float64{10, 50}, nil)
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindDeliverBatch)) == 1 })
	if ds := h.deliveries(t); len(ds) != 1 || ds[0].Subscriber != 1 {
		t.Fatalf("deliveries: %+v", ds)
	}
}

func TestPruneSkippedWhenRemovedFromTable(t *testing.T) {
	h := newHarness(t)
	t1 := mustTable(t, 1, 9)
	h.m.Gossiper().SetState(TableKey, t1.Encode(), t1.Version())
	waitFor(t, func() bool { return h.m.Table() != nil })
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 5, 20), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	// Matcher 1 leaves the table; it must keep its subscriptions and serve
	// stale traffic until shut down.
	t2, _, err := t1.Leave(1)
	if err != nil {
		t.Fatal(err)
	}
	h.m.Gossiper().SetState(TableKey, t2.Encode(), t2.Version())
	time.Sleep(400 * time.Millisecond) // grace is 100ms in the harness
	if h.m.SubsOnDim(0) != 1 {
		t.Error("removed matcher pruned its subscriptions")
	}
}

func TestAccessors(t *testing.T) {
	h := newHarness(t)
	if h.m.ID() != 1 || h.m.Addr() != "m1" {
		t.Errorf("ID/Addr: %v %q", h.m.ID(), h.m.Addr())
	}
	if h.m.Gossiper() == nil {
		t.Error("Gossiper nil")
	}
}
