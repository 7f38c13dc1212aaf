package matcher

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// mkBox builds a 2-dim subscription over testSpace with its own subscriber.
func mkBox(id core.SubscriptionID, lo0, hi0, lo1, hi1 float64) *core.Subscription {
	s := core.NewSubscription(core.SubscriberID(id), []core.Range{{Low: lo0, High: hi0}, {Low: lo1, High: hi1}})
	s.ID = id
	return s
}

// TestCoveringCoverRemovalReExposes: with covering on, a rider contained in
// a cover is not in the stabbing index — but unsubscribing the cover must
// re-expose it, with no lost deliveries.
func TestCoveringCoverRemovalReExposes(t *testing.T) {
	h := newHarnessMut(t, func(c *Config) { c.Covering = true })
	cover := mkBox(1, 0, 100, 0, 100)
	rider := mkBox(2, 10, 50, 10, 90)
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: cover, DeliverAddr: "peer"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: rider, DeliverAddr: "peer"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 2 })
	if got := h.m.IndexedOnDim(0); got != 1 {
		t.Fatalf("IndexedOnDim = %d, want 1 (rider collapsed under cover)", got)
	}

	h.send(t, wire.KindUnsubscribe, (&wire.UnsubscribeBody{ID: 1}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 1 })

	msg := core.NewMessage([]float64{20, 30}, nil)
	msg.ID = 7
	h.send(t, wire.KindForward, (&wire.ForwardBody{Dim: 0, Msg: msg}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindDeliver)) == 1 })
	d, err := wire.DecodeDeliver(h.received(wire.KindDeliver)[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if d.Subscriber != 2 || len(d.SubIDs) != 1 || d.SubIDs[0] != 2 {
		t.Fatalf("re-exposed rider delivery: %+v", d)
	}
}

// TestCoveringHandoverIncludesRiders: segment handover must ship covered
// subscriptions along with their covers — a rider is still a stored
// subscription even though it is not in the stabbing index.
func TestCoveringHandoverIncludesRiders(t *testing.T) {
	h := newHarnessMut(t, func(c *Config) { c.Covering = true })
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkBox(1, 60, 90, 0, 100), DeliverAddr: "a1"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkBox(2, 65, 85, 10, 90), DeliverAddr: "a2"}).Encode())
	h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: mkBox(3, 0, 30, 0, 100), DeliverAddr: "a3"}).Encode())
	waitFor(t, func() bool { return h.m.SubsOnDim(0) == 3 })
	if got := h.m.IndexedOnDim(0); got != 2 {
		t.Fatalf("IndexedOnDim = %d, want 2", got)
	}
	h.send(t, wire.KindHandover, (&wire.HandoverBody{Dim: 0, Low: 50, High: 100, TargetAddr: "peer"}).Encode())
	waitFor(t, func() bool { return len(h.received(wire.KindTransferRange)) == 1 })
	tr, err := wire.DecodeTransferRange(h.received(wire.KindTransferRange)[0].Body)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Subs) != 2 {
		t.Fatalf("transfer shipped %d subs, want cover+rider", len(tr.Subs))
	}
	addrs := map[core.SubscriptionID]string{}
	for i, s := range tr.Subs {
		addrs[s.ID] = tr.DeliverAddrs[i]
	}
	if addrs[1] != "a1" || addrs[2] != "a2" {
		t.Fatalf("transfer addrs: %v", addrs)
	}
}

// TestCoveringJournalReplay: the matcher journal stores raw mutations, so a
// restarted covering matcher must rebuild the same cover table — riders
// collapse again on replay, and removing the cover afterwards still
// re-exposes them.
func TestCoveringJournalReplay(t *testing.T) {
	dir := t.TempDir()
	mesh := newTestMesh(t)
	covering := func(c *Config) { c.Covering = true; c.SnapshotEvery = 3 }
	m := startDurable(t, mesh, dir, covering)

	ep := mesh.Endpoint("tester")
	st := func(s *core.Subscription) {
		body := (&wire.StoreBody{Dim: 0, Sub: s, DeliverAddr: "peer"}).Encode()
		if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindStore, From: 99, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	st(mkBox(1, 0, 100, 0, 100)) // cover
	st(mkBox(2, 10, 50, 10, 90)) // rider
	st(mkBox(3, 20, 40, 20, 80)) // rider (one-level: attaches to 1, not 2)
	st(mkBox(4, 60, 90, 60, 90)) // rider
	waitFor(t, func() bool { return m.SubsOnDim(0) == 4 })
	if got := m.IndexedOnDim(0); got != 1 {
		t.Fatalf("IndexedOnDim = %d, want 1", got)
	}
	m.Stop()
	mesh.Unbind("m1")

	m2 := startDurable(t, mesh, dir, covering)
	defer m2.Stop()
	if got := m2.SubsOnDim(0); got != 4 {
		t.Fatalf("restart rebuilt %d subscriptions, want 4", got)
	}
	if got := m2.IndexedOnDim(0); got != 1 {
		t.Fatalf("restart rebuilt %d indexed entries, want 1 (cover table lost)", got)
	}
	// The rebuilt cover table still re-exposes on cover removal.
	if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindUnsubscribe, From: 99,
		Body: (&wire.UnsubscribeBody{ID: 1}).Encode()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m2.SubsOnDim(0) == 3 && m2.IndexedOnDim(0) >= 1 })
}

// TestMatchCorrectnessAllConfigs runs the same store-forward-deliver
// workload through every index kind × covering × shard-count combination
// and checks the delivered (subscriber, message, subscription) set against
// the brute-force oracle.
func TestMatchCorrectnessAllConfigs(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	var subs []*core.Subscription
	for i := 1; i <= 60; i++ {
		lo0, lo1 := rng.Float64()*80, rng.Float64()*80
		s := mkBox(core.SubscriptionID(i), lo0, lo0+rng.Float64()*30+1, lo1, lo1+rng.Float64()*30+1)
		if i%4 == 0 && i > 4 {
			// Shrink an earlier cuboid: guaranteed containment chains.
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

	for _, kind := range []index.Kind{index.KindScan, index.KindBucket, index.KindIntervalTree} {
		for _, cov := range []bool{false, true} {
			for _, shards := range []int{1, 3} {
				name := fmt.Sprintf("%s/covering=%v/shards=%d", kind, cov, shards)
				t.Run(name, func(t *testing.T) {
					h := newHarnessMut(t, func(c *Config) {
						c.IndexKind = kind
						c.IndexBuckets = 64
						c.Covering = cov
						c.MatchShards = shards
					})
					for _, s := range subs {
						h.send(t, wire.KindStore, (&wire.StoreBody{Dim: 0, Sub: s, DeliverAddr: "peer"}).Encode())
					}
					waitFor(t, func() bool { return h.m.SubsOnDim(0) == len(subs) })
					var entries []wire.ForwardEntry
					for _, m := range msgs {
						entries = append(entries, wire.ForwardEntry{Dim: 0, Msg: m})
					}
					h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: entries}).Encode())
					waitFor(t, func() bool { return h.m.Processed.Value() == int64(len(msgs)) })

					got := map[pair]bool{}
					for _, env := range h.received(wire.KindDeliverBatch) {
						b, err := wire.DecodeDeliverBatch(env.Body)
						if err != nil {
							t.Fatal(err)
						}
						for _, d := range b.Deliveries {
							for _, id := range d.SubIDs {
								p := pair{id, d.Msg.ID}
								if got[p] {
									t.Fatalf("duplicate delivery %+v", p)
								}
								got[p] = true
							}
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
	}
}

// TestParallelMatchStress hammers the sharded match path with concurrent
// subscription churn (Add/Remove through the shard write locks) while
// forwarded batches fan stab+verify work across the worker pool — the
// mutation-vs-read concurrency contract under -race.
func TestParallelMatchStress(t *testing.T) {
	h := newHarnessMut(t, func(c *Config) {
		c.Covering = true
		c.MatchShards = 4
	})
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < 2; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			id := core.SubscriptionID(seed * 100000)
			for {
				select {
				case <-stop:
					return
				default:
				}
				id++
				lo0, lo1 := rng.Float64()*80, rng.Float64()*80
				h.m.store(0, mkBox(id, lo0, lo0+15, lo1, lo1+15), "peer")
				if rng.Intn(3) == 0 {
					h.m.unsubscribe(id - core.SubscriptionID(rng.Intn(20)))
				}
			}
		}(int64(w + 1))
	}
	rng := rand.New(rand.NewSource(9))
	var mid core.MessageID
	for round := 0; round < 40; round++ {
		var entries []wire.ForwardEntry
		for i := 0; i < 64; i++ {
			mid++
			m := core.NewMessage([]float64{rng.Float64() * 100, rng.Float64() * 100}, nil)
			m.ID = mid
			entries = append(entries, wire.ForwardEntry{Dim: 0, Msg: m})
		}
		h.send(t, wire.KindForwardBatch, (&wire.ForwardBatchBody{Entries: entries}).Encode())
	}
	waitFor(t, func() bool { return h.m.Processed.Value() == int64(mid) })
	close(stop)
	wg.Wait()
	if h.m.Dropped.Value() != 0 {
		t.Fatalf("stress dropped %d messages", h.m.Dropped.Value())
	}
}

// TestMatchBatchZeroAlloc pins the steady-state batched match path at zero
// allocations per message, on both the inline single-shard layout and the
// parallel multi-shard layout.
func TestMatchBatchZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race instrumentation allocates; alloc pin runs without -race")
	}
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			m, err := New(Config{
				ID: 1, Addr: "bench", Space: testSpace, Transport: nullTransport{},
				MatchShards: shards,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer func() {
				if m.pool != nil {
					m.pool.stop()
				}
			}()
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
			run := func() { m.matchBatch(ds, 0, forwardItem{msgs: batch}) }
			for i := 0; i < 5; i++ {
				run() // warm the pooled scratch, shard jobs and encode buffers
			}
			allocs := testing.AllocsPerRun(50, run)
			perMsg := allocs / float64(len(batch))
			if perMsg != 0 {
				t.Errorf("%.4f allocs/msg on the batched match path, want 0", perMsg)
			}
		})
	}
}

// newTestMesh builds a mesh closed at cleanup.
func newTestMesh(t *testing.T) *transport.Mesh {
	t.Helper()
	m := transport.NewMesh(0)
	t.Cleanup(func() { m.Close() })
	return m
}
