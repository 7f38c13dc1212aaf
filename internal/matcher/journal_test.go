package matcher

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/store"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// startDurable boots a matcher journaling to dir on the given mesh.
func startDurable(t *testing.T, mesh *transport.Mesh, dir string, mut func(*Config)) *Matcher {
	t.Helper()
	cfg := Config{
		ID:             1,
		Addr:           "m1",
		Space:          testSpace,
		Transport:      mesh.Endpoint("m1"),
		GossipInterval: 50 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		Generation:     1,
		DataDir:        dir,
		Fsync:          store.FsyncNever,
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
	return m
}

// TestJournalRestartRestoresSubscriptions: a matcher journaling to a data
// dir is fed stores and a remove, stopped, and restarted from the same dir.
// The rebuilt dimension sets must match exactly — before any traffic
// reaches the restarted node.
func TestJournalRestartRestoresSubscriptions(t *testing.T) {
	dir := t.TempDir()
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	// SnapshotEvery 4 forces the journal through at least one
	// snapshot+compaction cycle, so recovery exercises snapshot restore
	// plus WAL tail replay, not just replay.
	m := startDurable(t, mesh, dir, func(c *Config) { c.SnapshotEvery = 4 })

	ep := mesh.Endpoint("tester")
	for i := 1; i <= 6; i++ {
		body := (&wire.StoreBody{Dim: 0, Sub: mkSub(core.SubscriptionID(i), 0, 50), DeliverAddr: "peer"}).Encode()
		if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindStore, From: 99, Body: body}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return m.SubsOnDim(0) == 6 })
	if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindUnsubscribe, From: 99,
		Body: (&wire.UnsubscribeBody{ID: 3}).Encode()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.SubsOnDim(0) == 5 })
	m.Stop()
	mesh.Unbind("m1")

	m2 := startDurable(t, mesh, dir, nil)
	defer m2.Stop()
	if got := m2.SubsOnDim(0); got != 5 {
		t.Fatalf("restarted matcher rebuilt %d subscriptions, want 5", got)
	}
	rec := m2.Journal().Recovery()
	if !rec.SnapshotLoaded {
		t.Fatalf("recovery skipped the snapshot: %+v", rec)
	}
	// The restarted node keeps serving: another store lands on the rebuilt
	// set and is journaled in turn.
	body := (&wire.StoreBody{Dim: 0, Sub: mkSub(7, 0, 50), DeliverAddr: "peer"}).Encode()
	if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindStore, From: 99, Body: body}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m2.SubsOnDim(0) == 6 })
}

// A journal written before handovers moved to KindTransferRange may hold
// recTransfer records: replay still installs their copies. A live
// KindTransfer frame is ignored.
func TestJournalReplaysRetiredTransfer(t *testing.T) {
	dir := t.TempDir()
	s, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	old := &wire.TransferBody{Dim: 0, Subs: []*core.Subscription{mkSub(1, 0, 50), mkSub(2, 0, 50)},
		DeliverAddrs: []string{"peer", "peer"}}
	if err := s.Append(recTransfer, old.Encode()); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	m := startDurable(t, mesh, dir, nil)
	defer m.Stop()
	if got := m.SubsOnDim(0); got != 2 {
		t.Fatalf("replayed %d transferred subscriptions, want 2", got)
	}

	ep := mesh.Endpoint("tester")
	live := &wire.TransferBody{Dim: 0, Subs: []*core.Subscription{mkSub(3, 0, 50)}, DeliverAddrs: []string{"peer"}}
	if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindTransfer, From: 99, Body: live.Encode()}); err != nil {
		t.Fatal(err)
	}
	// The mesh serves m1's inbound frames in order: once this store lands,
	// the transfer frame has been handled.
	store4 := (&wire.StoreBody{Dim: 0, Sub: mkSub(4, 0, 50), DeliverAddr: "peer"}).Encode()
	if err := ep.Send("m1", &wire.Envelope{Kind: wire.KindStore, From: 99, Body: store4}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return m.SubsOnDim(0) >= 3 })
	if got := m.SubsOnDim(0); got != 3 {
		t.Fatalf("dimension 0 holds %d subscriptions, want 3: a live KindTransfer frame was installed", got)
	}
}
