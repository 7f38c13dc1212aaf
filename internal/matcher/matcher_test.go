package matcher

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/gossip"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

var testSpace = core.UniformSpace(2, 100)

// harness wires one matcher to a mesh with a fake dispatcher endpoint that
// records everything it receives.
type harness struct {
	mesh *transport.Mesh
	m    *Matcher
	mu   sync.Mutex
	// recv collects envelopes arriving at the fake peer endpoint "peer".
	recv []*wire.Envelope
}

func newHarness(t *testing.T) *harness { return newHarnessMut(t, nil) }

// newHarnessMut builds the harness with a config hook for tests exercising
// non-default configs (shards, clock).
func newHarnessMut(t *testing.T, mut func(*Config)) *harness {
	t.Helper()
	h := &harness{mesh: transport.NewMesh(0)}
	peer := h.mesh.Endpoint("peer")
	if _, err := peer.Listen("peer", func(env *wire.Envelope) *wire.Envelope {
		h.mu.Lock()
		h.recv = append(h.recv, env)
		h.mu.Unlock()
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ID:             1,
		Addr:           "m1",
		Space:          testSpace,
		Transport:      h.mesh.Endpoint("m1"),
		GossipInterval: 50 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		PruneGrace:     100 * time.Millisecond,
		Generation:     1,
	}
	if mut != nil {
		mut(&cfg)
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Start(); err != nil {
		t.Fatal(err)
	}
	h.m = m
	t.Cleanup(func() {
		m.Stop()
		h.mesh.Close()
	})
	return h
}

func (h *harness) send(t *testing.T, kind wire.Kind, body []byte) {
	t.Helper()
	ep := h.mesh.Endpoint("tester")
	if err := ep.Send("m1", &wire.Envelope{Kind: kind, From: 99, Body: body}); err != nil {
		t.Fatal(err)
	}
}

func (h *harness) received(kind wire.Kind) []*wire.Envelope {
	h.mu.Lock()
	defer h.mu.Unlock()
	var out []*wire.Envelope
	for _, e := range h.recv {
		if e.Kind == kind {
			out = append(out, e)
		}
	}
	return out
}

// deliveries decodes every DeliverBatch frame the peer received.
func (h *harness) deliveries(t *testing.T) []wire.DeliverBody {
	t.Helper()
	var out []wire.DeliverBody
	for _, env := range h.received(wire.KindDeliverBatch) {
		b, err := wire.DecodeDeliverBatch(env.Body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b.Deliveries...)
	}
	return out
}

// introduceSender runs one gossip exchange that introduces the sender h.send
// stamps (node 99) at "peer", so the matcher can address its acks.
func (h *harness) introduceSender(t *testing.T, now func() int64) {
	t.Helper()
	g, err := gossip.New(gossip.Config{ID: 99, Addr: "peer", Role: core.RoleDispatcher,
		Transport: h.mesh.Endpoint("gossip-99"), Seeds: []string{"m1"}, Now: now})
	if err != nil {
		t.Fatal(err)
	}
	g.Round()
	if _, ok := h.m.Gossiper().AddrOf(99); !ok {
		t.Fatal("matcher did not learn the sender's address")
	}
}

// acks decodes every ForwardAckBatch frame the peer received.
func (h *harness) acks(t *testing.T) []*wire.ForwardAckBatchBody {
	t.Helper()
	var out []*wire.ForwardAckBatchBody
	for _, env := range h.received(wire.KindForwardAckBatch) {
		b, err := wire.DecodeForwardAckBatch(env.Body)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, b)
	}
	return out
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

func mkSub(id core.SubscriptionID, lo0, hi0 float64) *core.Subscription {
	s := core.NewSubscription(core.SubscriberID(id), []core.Range{{Low: lo0, High: hi0}, {Low: 0, High: 100}})
	s.ID = id
	return s
}

func TestStoreForwardDeliver(t *testing.T) {
	h := newHarness(t)
	sub := mkSub(5, 10, 50)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: sub, DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })

	msg := core.NewMessage([]float64{20, 30}, []byte("x"))
	msg.ID = 77
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindDeliverBatch)) == 1 })

	ds := h.deliveries(t)
	if len(ds) != 1 {
		t.Fatalf("deliveries: %+v", ds)
	}
	if d := ds[0]; d.Subscriber != 5 || d.Msg.ID != 77 || len(d.SubIDs) != 1 || d.SubIDs[0] != 5 {
		t.Fatalf("delivery: %+v", d)
	}
	if h.m.Processed.Value() != 1 || h.m.Matched.Value() != 1 {
		t.Errorf("counters: processed=%d matched=%d", h.m.Processed.Value(), h.m.Matched.Value())
	}
}

func TestForwardNonMatchingDeliversNothing(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(5, 10, 50), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	msg := core.NewMessage([]float64{60, 30}, nil) // outside dim-0 predicate
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return h.m.Processed.Value() == 1 })
	if len(h.received(wire.KindDeliverBatch)) != 0 {
		t.Error("non-matching message delivered")
	}
}

func TestDimensionSetsAreSeparate(t *testing.T) {
	h := newHarness(t)
	// Store only on dim 1; a forward marked dim 0 must not match it.
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 1, Sub: mkSub(5, 0, 100), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(1) == 1 })
	if h.m.SubsOnDim(0) != 0 {
		t.Fatal("subscription leaked into dim 0")
	}
	msg := core.NewMessage([]float64{20, 30}, nil)
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return h.m.Processed.Value() == 1 })
	if len(h.received(wire.KindDeliverBatch)) != 0 {
		t.Error("matched against wrong dimension set")
	}
	// The same message forwarded along dim 1 matches.
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 1, Msg: msg}).Encode())
	waitFor(t, func() bool { return len(h.deliveries(t)) == 1 })
}

func TestUnsubscribeRemovesEverywhere(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(5, 0, 100), DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 1, Sub: mkSub(5, 0, 100), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 && h.m.SubsOnDim(1) == 1 })
	h.send(t, wire.KindUnsubscribe, (&wire.UnsubscribeBody{ID: 5}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 0 && h.m.SubsOnDim(1) == 0 })
}

func TestDeliveryGroupedPerSubscriber(t *testing.T) {
	h := newHarness(t)
	// Two subscriptions of the same subscriber matching the same message
	// must arrive as one delivery with both IDs.
	s1 := core.NewSubscription(9, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	s1.ID = 101
	s2 := core.NewSubscription(9, []core.Range{{Low: 10, High: 40}, {Low: 0, High: 100}})
	s2.ID = 102
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: s1, DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: s2, DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })
	msg := core.NewMessage([]float64{20, 20}, nil)
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindDeliverBatch)) == 1 })
	ds := h.deliveries(t)
	if len(ds) != 1 || len(ds[0].SubIDs) != 2 {
		t.Fatalf("deliveries: %+v", ds)
	}
}

func TestHandoverTransfersOverlapping(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 0, 30), DeliverAddr: "a1"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(2, 60, 90), DeliverAddr: "a2"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })
	// Hand over [50,100): only sub 2 overlaps. The outgoing frame is
	// range-bounded and carries the requested idempotency key.
	h.send(t, wire.KindHandover, (&wire.HandoverBody{Dim: 0, Low: 50, High: 100, TargetAddr: "peer",
		TransferID: 77}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindTransferRange)) == 1 })
	tr, err := wire.DecodeTransferRange(h.received(wire.KindTransferRange)[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if tr.TransferID != 77 || tr.Dim != 0 || tr.Low != 50 || tr.High != 100 {
		t.Fatalf("transfer header: %+v", tr)
	}
	if len(tr.Subs) != 1 || tr.Subs[0].ID != 2 || tr.DeliverAddrs[0] != "a2" {
		t.Fatalf("transfer: %+v", tr)
	}
}

func TestTransferRangeAdoptedOnce(t *testing.T) {
	h := newHarness(t)
	body := (&wire.TransferRangeBody{
		TransferID:   42,
		Dim:          0,
		Low:          0,
		High:         100,
		Subs:         []*core.Subscription{mkSub(1, 10, 20)},
		DeliverAddrs: []string{"a1"},
	}).Encode()
	h.send(t, wire.KindTransferRange, body)
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	// The same transfer retried (sender crashed mid-handover, controller
	// re-issued it) must not double-install.
	h.send(t, wire.KindTransferRange, body)
	// A distinct transfer still lands, proving the guard is per-ID.
	h.send(t, wire.KindTransferRange, (&wire.TransferRangeBody{
		TransferID:   43,
		Dim:          0,
		Low:          0,
		High:         100,
		Subs:         []*core.Subscription{mkSub(2, 30, 40)},
		DeliverAddrs: []string{"a2"},
	}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })
	if h.m.SubsOnDim(0) != 2 {
		t.Fatalf("subs = %d, want 2 (duplicate transfer adopted?)", h.m.SubsOnDim(0))
	}
}

func TestLoadReportsPushedToDispatchers(t *testing.T) {
	h := newHarness(t)
	// Make the fake peer a dispatcher in gossip by running a real gossiper
	// there would be heavy; instead verify via LoadSnapshot directly.
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(1, 0, 30), DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })
	snap := h.m.LoadSnapshot()
	if len(snap) != 2 {
		t.Fatalf("snapshot dims: %d", len(snap))
	}
	if snap[0].Subs != 1 || snap[1].Subs != 0 {
		t.Fatalf("snapshot: %+v", snap)
	}
	if snap[0].MatchRate <= 0 {
		t.Error("cold stage capacity not seeded")
	}
}

func TestBadFramesIgnored(t *testing.T) {
	h := newHarness(t)
	h.send(t, wire.KindStore, []byte{1, 2})
	h.send(t, wire.KindForward, []byte{3})
	h.send(t, wire.KindTransfer, []byte{9, 9, 9})
	h.send(t, wire.KindHandover, []byte{})
	h.send(t, wire.Kind(250), nil)
	// Out-of-range dimension.
	msg := core.NewMessage([]float64{1, 2}, nil)
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 9, Msg: msg}).Encode())
	time.Sleep(100 * time.Millisecond)
	if h.m.Processed.Value() != 0 {
		t.Error("garbage processed")
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
}

// TestTTLShedAtDequeue: whether it arrives in a Forward or a ForwardBatch
// frame, a publication whose TTL expired while queued is acked in a
// ForwardAckBatch, never delivered, and counted in Shed; one still inside
// its TTL is delivered. The matcher's clock is injected and advanced past
// PublishedAt+TTL for the expired cases.
func TestTTLShedAtDequeue(t *testing.T) {
	const published, ttl = int64(1_000_000_000), int64(time.Second)
	for _, tc := range []struct {
		name           string
		batch, expired bool
	}{
		{"single/live", false, false},
		{"single/expired", false, true},
		{"batch/live", true, false},
		{"batch/expired", true, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var clock atomic.Int64
			clock.Store(published)
			h := newHarnessMut(t, func(c *Config) { c.Now = clock.Load })
			h.introduceSender(t, clock.Load)
			h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(5, 0, 100), DeliverAddr: "peer"}).Encode())
			waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })

			msg := core.NewMessage([]float64{20, 30}, nil)
			msg.ID, msg.PublishedAt, msg.TTL = 42, published, ttl
			if tc.expired {
				clock.Store(published + ttl + 1)
			}
			if tc.batch {
				h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: []wire.ForwardEntry{{Dim: 0, Msg: msg}}}).Encode())
			} else {
				h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
			}

			// The ack leaves after any delivery frame, so once it is in,
			// the delivery count is final.
			waitFor(t, func() bool { return len(h.received(wire.KindForwardAckBatch)) == 1 })
			if b := h.acks(t)[0]; len(b.IDs) != 1 || b.IDs[0] != 42 || len(b.Busy) != 0 {
				t.Fatalf("ack batch: %+v", b)
			}
			wantShed, wantDelivered := int64(0), 1
			if tc.expired {
				wantShed, wantDelivered = 1, 0
			}
			if got := h.m.Shed.Value(); got != wantShed {
				t.Errorf("Shed = %d, want %d", got, wantShed)
			}
			if got := len(h.received(wire.KindDeliverBatch)); got != wantDelivered {
				t.Errorf("delivery frames = %d, want %d", got, wantDelivered)
			}
			if got := h.m.Delivered.Value(); got != int64(wantDelivered) {
				t.Errorf("Delivered = %d, want %d", got, wantDelivered)
			}
		})
	}
}

// mkBox builds a 2-dim subscription over testSpace with its own subscriber.
func mkBox(id core.SubscriptionID, lo0, hi0, lo1, hi1 float64) *core.Subscription {
	s := core.NewSubscription(core.SubscriberID(id), []core.Range{{Low: lo0, High: hi0}, {Low: lo1, High: hi1}})
	s.ID = id
	return s
}

// TestMatchCorrectnessAllConfigs runs the same store-forward-deliver
// workload once as one Forward frame per message and once as one
// ForwardBatch, and checks both delivered (subscriber, message,
// subscription) sets against the brute-force oracle.
func TestMatchCorrectnessAllConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var subs []*core.Subscription
	for i := 1; i <= 60; i++ {
		lo0, lo1 := rng.Float64()*80, rng.Float64()*80
		s := mkBox(core.SubscriptionID(i), lo0, lo0+rng.Float64()*30+1, lo1, lo1+rng.Float64()*30+1)
		if i%4 == 0 && i > 4 {
			// Shrink an earlier cuboid: nested subscriptions share cells.
			p := subs[i-5].Predicates
			s = mkBox(core.SubscriptionID(i),
				p[0].Low+1, p[0].High-1, p[1].Low+1, p[1].High-1)
		}
		subs = append(subs, s)
	}
	var msgs []*core.Message
	for i := 0; i < 40; i++ {
		m := core.NewMessage([]float64{rng.Float64() * 100, rng.Float64() * 100}, nil)
		m.ID = core.MessageID(i + 1)
		msgs = append(msgs, m)
	}
	type pair struct {
		sub core.SubscriptionID
		msg core.MessageID
	}
	want := map[pair]bool{}
	for _, s := range subs {
		for _, m := range msgs {
			if s.Matches(m) {
				want[pair{s.ID, m.ID}] = true
			}
		}
	}

	for _, input := range []string{"forward", "forward-batch"} {
		t.Run("input="+input, func(t *testing.T) {
			h := newHarness(t)
			for _, s := range subs {
				h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: s, DeliverAddr: "peer"}).Encode())
			}
			waitFor(t, func() bool { return h.m.SubsOnDim(0) == len(subs) })
			if input == "forward" {
				for _, m := range msgs {
					h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: m}).Encode())
				}
			} else {
				var entries []wire.ForwardEntry
				for _, m := range msgs {
					entries = append(entries, wire.ForwardEntry{Dim: 0, Msg: m})
				}
				h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: entries}).Encode())
			}
			waitFor(t, func() bool { return h.m.Processed.Value() == int64(len(msgs)) })

			got := map[pair]bool{}
			for _, d := range h.deliveries(t) {
				for _, id := range d.SubIDs {
					p := pair{id, d.Msg.ID}
					if got[p] {
						t.Fatalf("duplicate delivery %+v", p)
					}
					got[p] = true
				}
			}
			if len(got) != len(want) {
				t.Fatalf("delivered %d pairs, want %d", len(got), len(want))
			}
			for p := range want {
				if !got[p] {
					t.Fatalf("missing delivery %+v", p)
				}
			}
			if int64(len(want)) != h.m.Matched.Value() {
				t.Fatalf("Matched=%d, want %d", h.m.Matched.Value(), len(want))
			}
		})
	}
}

// TestParallelMatchStress hammers the match path with concurrent
// subscription churn (Add/Remove under the dimension set's write lock) while
// interleaved single and batched forwards match under its read lock — the
// mutation-vs-read concurrency contract under -race.
func TestParallelMatchStress(t *testing.T) {
	h := newHarness(t)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			// Each churner cycles through a fixed window of IDs, re-storing
			// (replacing) them, so the live set and the deliveries per
			// message stay bounded however fast stores run.
			const window = 1000
			base := core.SubscriptionID(seed * 100000)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				id := base + core.SubscriptionID(i%window)
				lo0, lo1 := rng.Float64()*80, rng.Float64()*80
				h.m.store(0, mkBox(id, lo0, lo0+15, lo1, lo1+15), "peer")
				if rng.Intn(3) == 0 {
					h.m.unsubscribe(base + core.SubscriptionID(rng.Intn(window)))
				}
			}
		}(int64(w + 1))
	}
	rng := rand.New(rand.NewSource(9))
	var mid core.MessageID
	next := func() *core.Message {
		mid++
		m := core.NewMessage([]float64{rng.Float64() * 100, rng.Float64() * 100}, nil)
		m.ID = mid
		return m
	}
	for round := 0; round < 40; round++ {
		var entries []wire.ForwardEntry
		for i := 0; i < 64; i++ {
			entries = append(entries, wire.ForwardEntry{Dim: 0, Msg: next()})
		}
		h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: entries}).Encode())
		for i := 0; i < 16; i++ {
			h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: next()}).Encode())
		}
	}
	waitFor(t, func() bool { return h.m.Processed.Value() == int64(mid) })
	close(stop)
	wg.Wait()
	if h.m.Dropped.Value() != 0 {
		t.Fatalf("stress dropped %d messages", h.m.Dropped.Value())
	}
}

// TestMatchBatchZeroAlloc pins the steady-state match path at zero
// allocations per message, for a 64-message batch and for a single forward,
// which matchItem matches as a one-message batch.
func TestMatchBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs without -race")
	}
	m, err := New(Config{ID: 1, Addr: "bench", Space: testSpace, Transport: nullTransport{}})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 400; i++ {
		lo0, lo1 := rng.Float64()*70, rng.Float64()*70
		m.store(0, mkBox(core.SubscriptionID(i), lo0, lo0+25, lo1, lo1+25), "sink")
	}
	batch := make([]*core.Message, 64)
	for i := range batch {
		msg := core.NewMessage([]float64{rng.Float64() * 100, rng.Float64() * 100}, nil)
		msg.ID = core.MessageID(i + 1)
		batch[i] = msg
	}
	ds := m.dims[0]
	for _, tc := range []struct {
		name string
		n    int
		run  func()
	}{
		{"batch", len(batch), func() { m.matchItem(ds, forwardItem{msgs: batch}) }},
		{"single", 1, func() { m.matchItem(ds, forwardItem{msg: batch[7]}) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			for i := 0; i < 5; i++ {
				tc.run() // warm the pooled scratch and encode buffers
			}
			if perMsg := testing.AllocsPerRun(50, tc.run) / float64(tc.n); perMsg != 0 {
				t.Errorf("%.4f allocs/msg on the match path, want 0", perMsg)
			}
		})
	}
}

// TestBusyReplyForSingleForward: a single Forward that its full stage
// rejects is answered by a ForwardAckBatch carrying no IDs and exactly one
// Busy entry naming the publication, its dimension and the stage backlog.
func TestBusyReplyForSingleForward(t *testing.T) {
	h := newHarnessMut(t, func(c *Config) { c.QueueDepth = 1 })
	h.introduceSender(t, nil)
	// A slow stage: the first forward occupies the worker, the second the
	// one queue slot, so the rest are rejected on arrival.
	h.m.SetServiceThrottle(50 * time.Millisecond)
	sent := map[core.MessageID]bool{}
	for i := 1; i <= 6; i++ {
		msg := core.NewMessage([]float64{20, 30}, nil)
		msg.ID = core.MessageID(i)
		sent[msg.ID] = true
		h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 1, Msg: msg}).Encode())
	}
	waitFor(t, func() bool {
		return h.m.BusyNacks.Value() > 0 &&
			h.m.Processed.Value()+h.m.BusyNacks.Value() == int64(len(sent))
	})
	waitFor(t, func() bool { return len(h.received(wire.KindForwardAckBatch)) == len(sent) })
	busy := 0
	for _, b := range h.acks(t) {
		if len(b.Busy) == 0 {
			continue
		}
		busy++
		if len(b.IDs) != 0 || len(b.Traces) != 0 || len(b.Busy) != 1 {
			t.Fatalf("busy reply: %+v", b)
		}
		if e := b.Busy[0]; !sent[e.ID] || e.Dim != 1 || e.QueueLen < 1 {
			t.Fatalf("busy entry: %+v", e)
		}
	}
	if int64(busy) != h.m.BusyNacks.Value() {
		t.Fatalf("%d busy replies, BusyNacks=%d", busy, h.m.BusyNacks.Value())
	}
}

// TestHopDeliverStamped: a traced forward, single or batched, comes back
// with HopDeliver read from the clock when its deliver frame is flushed,
// after HopMatch, both in the delivery and in the ack.
func TestHopDeliverStamped(t *testing.T) {
	for _, batched := range []bool{false, true} {
		t.Run(fmt.Sprintf("batched=%v", batched), func(t *testing.T) {
			var clock atomic.Int64
			tick := func() int64 { return clock.Add(1000) }
			h := newHarnessMut(t, func(c *Config) { c.Now = tick })
			h.introduceSender(t, tick)
			h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkSub(5, 0, 100), DeliverAddr: "peer"}).Encode())
			waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })

			msg := core.NewMessage([]float64{20, 30}, nil)
			msg.ID = 42
			msg.Trace = &core.TraceCtx{ID: 42, Dispatcher: 99, Dim: 0}
			if batched {
				h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: []wire.ForwardEntry{{Dim: 0, Msg: msg}}}).Encode())
			} else {
				h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
			}
			waitFor(t, func() bool { return len(h.received(wire.KindForwardAckBatch)) == 1 })
			ack := h.acks(t)[0]
			if len(ack.Traces) != 1 {
				t.Fatalf("ack traces: %+v", ack)
			}
			ds := h.deliveries(t)
			if len(ds) != 1 || ds[0].Msg.Trace == nil {
				t.Fatalf("deliveries: %+v", ds)
			}
			for name, hops := range map[string][core.HopCount]int64{
				"ack": ack.Traces[0].Ctx.Hops, "delivery": ds[0].Msg.Trace.Hops,
			} {
				if hops[core.HopMatch] == 0 || hops[core.HopDeliver] <= hops[core.HopMatch] {
					t.Errorf("%s: match %d, deliver %d; want deliver after match",
						name, hops[core.HopMatch], hops[core.HopDeliver])
				}
			}
		})
	}
}
