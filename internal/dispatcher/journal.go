package dispatcher

import (
	"encoding/binary"
	"fmt"

	"bluedove/internal/core"
	"bluedove/internal/store"
	"bluedove/internal/wire"
)

// Journal record kinds. The registry records reuse the wire codec bodies;
// removals and acks are bare 8-byte little-endian IDs. Snapshot payloads are
// record streams (store.AppendRecord framing) restored through the same
// applyRecord as the WAL tail.
const (
	recRegAdd    uint8 = 1 // wire.SubscribeBody: registered subscription + deliver addr
	recRegRemove uint8 = 2 // uint64 LE subscription ID
	recPending   uint8 = 3 // wire.PublishBody: accepted publication awaiting a matcher ack
	recAck       uint8 = 4 // uint64 LE message ID: pending forward acknowledged
	recCounters  uint8 = 5 // uint64 LE nextSub | uint64 LE nextMsg (snapshot only)
)

// openJournal opens (and recovers) the dispatcher's durable state when
// Config.DataDir is set: the subscription registry, the pending-forward
// table (Persistent mode), and the ID counters. Called from Start before
// the listener binds, so replay never races live traffic. Recovered pending
// forwards carry a zero deadline — the retransmit loop re-forwards them on
// its first tick. The registry is re-installed on matchers by the normal
// reconcile pass when the segment table is (re)adopted.
func (d *Dispatcher) openJournal() error {
	if d.cfg.DataDir == "" {
		return nil
	}
	s, err := store.Open(store.Options{
		Dir:           d.cfg.DataDir,
		Fsync:         d.cfg.Fsync,
		SnapshotEvery: d.cfg.SnapshotEvery,
		Restore:       func(p []byte) error { return store.WalkRecords(p, d.applyRecord) },
		Apply:         d.applyRecord,
		FS:            d.cfg.FS,
		Policy:        d.cfg.FailPolicy,
		OnHealth: func(h store.Health, cause error) {
			if h == store.Failed && d.cfg.OnStoreFailure != nil {
				d.cfg.OnStoreFailure(cause)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("dispatcher: journal: %w", err)
	}
	d.jnl = s
	return nil
}

// applyRecord is the recovery apply function (runs single-threaded, before
// the listener binds — no locking needed). ID-counter recovery: the
// snapshot carries the exact counters, and every add/pending record since
// bumps the watermark from its ID's low 40 bits, so a restarted dispatcher
// never re-issues an ID — which matters for client-side duplicate
// suppression, keyed on message ID.
func (d *Dispatcher) applyRecord(kind uint8, payload []byte) error {
	const idMask = 1<<40 - 1
	switch kind {
	case recRegAdd:
		if b, err := wire.DecodeSubscribe(payload); err == nil && b.Sub != nil {
			d.registry[b.Sub.ID] = regEntry{sub: b.Sub, addr: b.DeliverAddr}
			if low := uint64(b.Sub.ID) & idMask; low > d.nextSub {
				d.nextSub = low
			}
		}
	case recRegRemove:
		if len(payload) == 8 {
			delete(d.registry, core.SubscriptionID(binary.LittleEndian.Uint64(payload)))
		}
	case recPending:
		if b, err := wire.DecodePublish(payload); err == nil && b.Msg != nil {
			if low := uint64(b.Msg.ID) & idMask; low > d.nextMsg {
				d.nextMsg = low
			}
			if d.cfg.Persistent && len(d.inflight) < d.cfg.MaxInflight {
				d.inflight[b.Msg.ID] = &inflightMsg{msg: b.Msg, tried: map[core.NodeID]bool{}}
			}
		}
	case recAck:
		if len(payload) == 8 {
			delete(d.inflight, core.MessageID(binary.LittleEndian.Uint64(payload)))
		}
	case recCounters:
		if len(payload) == 16 {
			if v := binary.LittleEndian.Uint64(payload[0:8]); v > d.nextSub {
				d.nextSub = v
			}
			if v := binary.LittleEndian.Uint64(payload[8:16]); v > d.nextMsg {
				d.nextMsg = v
			}
		}
	}
	return nil
}

// journal appends one mutation and folds the journal into a snapshot when
// due. Nil journal: no-op. Append errors degrade durability, not service —
// but never silently: every failure counts into dispatcher.journal_errors
// and flips the store.health gauge, and the health machine handles the
// segment itself (repair, degrade, or fail). Must not be called with d.mu
// held (the snapshot pass takes it).
func (d *Dispatcher) journal(kind uint8, payload []byte) {
	if d.jnl == nil {
		return
	}
	if err := d.jnl.Append(kind, payload); err != nil {
		d.JournalErrors.Add(1)
	}
	if d.jnl.SnapshotDue() {
		d.snapshotJournal()
	}
}

// journalID appends an 8-byte ID record (removal or ack).
func (d *Dispatcher) journalID(kind uint8, id uint64) {
	if d.jnl == nil {
		return
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], id)
	d.journal(kind, buf[:])
}

// snapshotJournal serializes the counters, the registry and (Persistent
// mode) the pending table as one record stream and folds the WAL into it. A
// best-effort dispatcher's in-flight entries are never journaled: a restart
// must not retransmit them.
func (d *Dispatcher) snapshotJournal() {
	d.mu.Lock()
	var payload []byte
	var cbuf [16]byte
	binary.LittleEndian.PutUint64(cbuf[0:8], d.nextSub)
	binary.LittleEndian.PutUint64(cbuf[8:16], d.nextMsg)
	payload = store.AppendRecord(payload, recCounters, cbuf[:])
	for _, e := range d.registry {
		body := (&wire.SubscribeBody{Sub: e.sub, DeliverAddr: e.addr}).Encode()
		payload = store.AppendRecord(payload, recRegAdd, body)
	}
	if d.cfg.Persistent {
		for _, inf := range d.inflight {
			body := (&wire.PublishBody{Msg: inf.msg}).Encode()
			payload = store.AppendRecord(payload, recPending, body)
		}
	}
	d.mu.Unlock()
	if err := d.jnl.Snapshot(payload); err != nil {
		d.JournalErrors.Add(1)
	}
}

// StoreHealth is the journal's durability state (Healthy on in-memory
// nodes: there is no durability guarantee to lose).
func (d *Dispatcher) StoreHealth() store.Health {
	if d.jnl == nil {
		return store.Healthy
	}
	return d.jnl.Health()
}

// closeJournal syncs and closes the journal at Stop.
func (d *Dispatcher) closeJournal() {
	if d.jnl != nil {
		_ = d.jnl.Close()
	}
}

// Journal exposes the durable store (nil on in-memory nodes), for tests and
// tooling.
func (d *Dispatcher) Journal() *store.Store { return d.jnl }
