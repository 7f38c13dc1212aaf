package matcher

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/wire"
)

func TestForwardBatchDelivers(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(5, 10, 50), DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 1, Sub: mkSub(6, 0, 100), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 && h.m.SubsOnDim(1) == 1 })

	// One batch mixing dimensions: two messages for dim 0 (one matching, one
	// not), one for dim 1.
	m1 := core.NewMessage([]float64{20, 30}, []byte("a"))
	m1.ID = 201
	m2 := core.NewMessage([]float64{90, 30}, nil) // outside sub 5's dim-0 range
	m2.ID = 202
	m3 := core.NewMessage([]float64{70, 30}, []byte("c"))
	m3.ID = 203
	batch := &wire.ForwardBatchBody{Entries: []wire.ForwardEntry{
		{Dim: 0, Msg: m1}, {Dim: 0, Msg: m2}, {Dim: 1, Msg: m3},
	}}
	h.send(t, wire.KindForwardBatch, batch.Encode())

	waitFor(t, func() bool { return h.m.Processed.Value() == 3 })
	waitFor(t, func() bool {
		got := 0
		for _, e := range h.received(wire.KindDeliverBatch) {
			db, err := wire.DecodeDeliverBatch(e.Body)
			if err != nil {
				t.Fatal(err)
			}
			got += len(db.Deliveries)
		}
		return got == 2
	})

	seen := map[core.MessageID]core.SubscriberID{}
	for _, e := range h.received(wire.KindDeliverBatch) {
		db, _ := wire.DecodeDeliverBatch(e.Body)
		for _, d := range db.Deliveries {
			if len(d.SubIDs) != 1 {
				t.Fatalf("SubIDs: %v", d.SubIDs)
			}
			seen[d.Msg.ID] = d.Subscriber
		}
	}
	if seen[201] != 5 || seen[203] != 6 {
		t.Fatalf("deliveries: %v", seen)
	}
	if _, ok := seen[202]; ok {
		t.Fatal("non-matching message delivered")
	}
	if h.m.Matched.Value() != 2 || h.m.Delivered.Value() != 2 {
		t.Errorf("counters: matched=%d delivered=%d", h.m.Matched.Value(), h.m.Delivered.Value())
	}
}

func TestForwardBatchCoalescesPerAddress(t *testing.T) {
	h := newHarness(t)
	// Two subscribers behind the same address, both matching both messages:
	// the whole batch's four deliveries must arrive in one DeliverBatch frame.
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 0, 100), DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(2, 0, 100), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })

	ma := core.NewMessage([]float64{10, 10}, nil)
	ma.ID = 301
	mb := core.NewMessage([]float64{20, 20}, nil)
	mb.ID = 302
	h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: []wire.ForwardEntry{
		{Dim: 0, Msg: ma}, {Dim: 0, Msg: mb},
	}}).Encode())

	waitFor(t, func() bool { return len(h.received(wire.KindDeliverBatch)) == 1 })
	db, err := wire.DecodeDeliverBatch(h.received(wire.KindDeliverBatch)[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(db.Deliveries) != 4 {
		t.Fatalf("expected 4 coalesced deliveries, got %d", len(db.Deliveries))
	}
	if h.m.Delivered.Value() != 4 {
		t.Errorf("delivered=%d", h.m.Delivered.Value())
	}
}

func TestDeliveredCounterExcludesAddressless(t *testing.T) {
	h := newHarness(t)
	// One subscription with a delivery address, one stored without (e.g. a
	// replication-safeguard copy): both count as matched, only one as
	// delivered.
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 0, 100), DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(2, 0, 100), DeliverAddr: ""}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })

	msg := core.NewMessage([]float64{50, 50}, nil)
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return h.m.Processed.Value() == 1 })

	if h.m.Matched.Value() != 2 {
		t.Errorf("matched=%d, want 2 (attempted)", h.m.Matched.Value())
	}
	if h.m.Delivered.Value() != 1 {
		t.Errorf("delivered=%d, want 1 (one had no address)", h.m.Delivered.Value())
	}
	if len(h.received(wire.KindDeliverBatch)) != 1 {
		t.Fatalf("deliver frames: %d", len(h.received(wire.KindDeliverBatch)))
	}

	// Same on the batched path.
	h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: []wire.ForwardEntry{
		{Dim: 0, Msg: core.NewMessage([]float64{40, 40}, nil)},
	}}).Encode())
	waitFor(t, func() bool { return h.m.Processed.Value() == 2 })
	if h.m.Matched.Value() != 4 || h.m.Delivered.Value() != 2 {
		t.Errorf("after batch: matched=%d delivered=%d", h.m.Matched.Value(), h.m.Delivered.Value())
	}
}

func TestForwardBatchBadDimsDropped(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 0, 100), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	ok := core.NewMessage([]float64{10, 10}, nil)
	h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: []wire.ForwardEntry{
		{Dim: 9, Msg: core.NewMessage([]float64{1, 1}, nil)}, // out of range: skipped
		{Dim: 0, Msg: ok},
	}}).Encode())
	waitFor(t, func() bool { return h.m.Processed.Value() == 1 })
	if got := len(h.received(wire.KindDeliverBatch)); got != 1 {
		t.Fatalf("deliver-batch frames: %d", got)
	}
	time.Sleep(20 * time.Millisecond)
	if h.m.Processed.Value() != 1 {
		t.Errorf("processed=%d, want 1", h.m.Processed.Value())
	}
}
