package dispatcher

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/partition"
	"bluedove/internal/store"
	"bluedove/internal/wire"
)

// TestRetryTickerClampSurvivesTinyInterval: a RetryInterval below 2ns used
// to panic time.NewTicker (interval/2 == 0); the retransmit loop clamps its
// tick to 1ms instead.
func TestRetryTickerClampSurvivesTinyInterval(t *testing.T) {
	h := newHarnessWith(t, func(c *Config) {
		c.Persistent = true
		c.RetryInterval = 1 // 1ns: interval/2 truncates to zero
	}, "m1")
	// The panic (pre-clamp) fired inside retransmitLoop's first statement;
	// give the goroutine time to reach it, then prove the node still works.
	time.Sleep(50 * time.Millisecond)
	if h.d.InflightLen() != 0 {
		t.Fatal("unexpected inflight state on an idle dispatcher")
	}
}

// TestJournalRestartRestoresRegistryAndInflight: a persistent dispatcher
// journaling to a data dir accepts a subscription and a publication whose
// forward is never acked, then crashes. The restart must rebuild the
// registry and the pending table from the journal, keep the ID counters
// monotonic, and retransmit the unacked publication.
func TestJournalRestartRestoresRegistryAndInflight(t *testing.T) {
	dir := t.TempDir()
	h := newHarnessWith(t, func(c *Config) {
		c.Persistent = true
		c.RetryInterval = 50 * time.Millisecond
		c.DataDir = dir
		c.Fsync = store.FsyncNever
	}, "m1")
	h.seedGossip(t, []core.NodeID{1}, []string{"m1"})
	tab, err := partition.NewUniform(testSpace, []core.NodeID{1})
	if err != nil {
		t.Fatal(err)
	}
	h.d.SetTable(tab)

	sub := core.NewSubscription(7, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	resp := h.request(t, wire.KindSubscribe, (&wire.SubscribeBody{Sub: sub, DeliverAddr: "peer"}).Encode())
	ack, err := wire.DecodeSubscribeAck(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	msg := core.NewMessage([]float64{50, 50}, []byte("pending"))
	if err := h.mesh.Endpoint("tester").Send("d1",
		&wire.Envelope{Kind: wire.KindPublish, Body: (&wire.PublishBody{Msg: msg}).Encode()}); err != nil {
		t.Fatal(err)
	}
	// The scripted matcher records the forward but never acks it.
	waitFor(t, func() bool { return h.d.InflightLen() == 1 })

	h.d.Stop()
	h.mesh.Unbind("d1")

	cfg := Config{
		ID:             100,
		Addr:           "d1",
		Space:          testSpace,
		Transport:      h.mesh.Endpoint("d1"),
		GossipInterval: 25 * time.Millisecond,
		RecoveryDelay:  100 * time.Millisecond,
		FailAfter:      300 * time.Millisecond,
		Generation:     2,
		Persistent:     true,
		RetryInterval:  50 * time.Millisecond,
		DataDir:        dir,
		Fsync:          store.FsyncNever,
	}
	d2, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := d2.Start(); err != nil {
		t.Fatal(err)
	}
	defer d2.Stop()

	if got := d2.RegistrySize(); got != 1 {
		t.Fatalf("restarted registry holds %d subscriptions, want 1", got)
	}
	if got := d2.InflightLen(); got != 1 {
		t.Fatalf("restarted pending table holds %d publications, want 1", got)
	}
	// The partition table is not journaled (gossip restores it in a real
	// cluster); reinstall it before exercising the restarted node.
	d2.SetTable(tab)

	// ID counters survived: a new subscription must not reuse the old ID
	// (reuse would poison client-side duplicate suppression).
	sub2 := core.NewSubscription(8, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	resp2, err := h.mesh.Endpoint("tester2").Request("d1",
		&wire.Envelope{Kind: wire.KindSubscribe,
			Body: (&wire.SubscribeBody{Sub: sub2, DeliverAddr: "peer"}).Encode()}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack2, err := wire.DecodeSubscribeAck(resp2.Body)
	if err != nil {
		t.Fatal(err)
	}
	if ack2.ID == ack.ID {
		t.Fatalf("restarted dispatcher reissued subscription ID %v", ack.ID)
	}

	// The recovered pending publication is retransmitted (zero deadline,
	// first retry tick).
	before := len(h.batchEntries(t, "m1"))
	waitFor(t, func() bool { return len(h.batchEntries(t, "m1")) > before })
}
