package matcher

import (
	"fmt"
	"sort"

	"bluedove/internal/partition"
	"bluedove/internal/store"
	"bluedove/internal/wire"
)

// Journal record kinds. Payloads reuse the wire codec bodies the transport
// handler already decodes, so replay is literally a second pass through the
// same apply logic — the handler journals the raw body bytes it was handed
// and recovery decodes them with the same wire functions. Snapshot payloads
// are themselves record streams (store.AppendRecord framing), restored
// through the same applyRecord as the WAL tail.
const (
	recSubStore  uint8 = 1 // wire.StoreBody: one subscription copy on one dimension
	recSubRemove uint8 = 2 // wire.UnsubscribeBody: remove from every dimension
	// recTransfer is a wire.TransferBody: a handover bulk install. Only
	// journals written before handovers moved to KindTransferRange hold it;
	// replay still installs their copies.
	recTransfer uint8 = 3
	recTable    uint8 = 4 // partition table encoding: adopted segment table
	// recTransferRange is a wire.TransferRangeBody: a range-bounded handover
	// install. Replay re-arms the adoption guard with the TransferID, so a
	// transfer retried across a crash of the receiving matcher is still
	// adopted at most once. Snapshots persist the guard as sub-less
	// TransferRangeBody records.
	recTransferRange uint8 = 5
)

// openJournal opens (and recovers) the durable subscription journal when
// Config.DataDir is set. Called from Start before the transport listener
// binds, so replay never races live mutations. Pruning is intentionally NOT
// journaled: after replay the restored table re-derives it, which keeps the
// hot prune path free of WAL writes.
func (m *Matcher) openJournal() error {
	if m.cfg.DataDir == "" {
		return nil
	}
	s, err := store.Open(store.Options{
		Dir:           m.cfg.DataDir,
		Fsync:         m.cfg.Fsync,
		SnapshotEvery: m.cfg.SnapshotEvery,
		Restore:       func(p []byte) error { return store.WalkRecords(p, m.applyRecord) },
		Apply:         m.applyRecord,
		FS:            m.cfg.FS,
		Policy:        m.cfg.FailPolicy,
		OnHealth: func(h store.Health, cause error) {
			if h == store.Failed && m.cfg.OnStoreFailure != nil {
				m.cfg.OnStoreFailure(cause)
			}
		},
	})
	if err != nil {
		return fmt.Errorf("matcher: journal: %w", err)
	}
	m.jnl = s
	if t := m.Table(); t != nil {
		// Replay resurrects every add since the snapshot, including copies a
		// later table change pruned; prune against the restored table now so
		// the rebuilt sets match the pre-crash state.
		m.pruneTo(t)
	}
	return nil
}

// applyRecord is the recovery apply function, for both snapshot payloads and
// the WAL tail. Undecodable records are skipped, mirroring the transport
// handler's tolerance of malformed frames.
func (m *Matcher) applyRecord(kind uint8, payload []byte) error {
	switch kind {
	case recSubStore:
		if b, err := wire.DecodeStore(payload); err == nil && b.Dim >= 0 && b.Dim < len(m.dims) {
			m.store(b.Dim, b.Sub, b.DeliverAddr)
		}
	case recSubRemove:
		if b, err := wire.DecodeUnsubscribe(payload); err == nil {
			m.unsubscribe(b.ID)
		}
	case recTransfer:
		if b, err := wire.DecodeTransfer(payload); err == nil && b.Dim >= 0 && b.Dim < len(m.dims) {
			for i, s := range b.Subs {
				addr := ""
				if i < len(b.DeliverAddrs) {
					addr = b.DeliverAddrs[i]
				}
				m.store(b.Dim, s, addr)
			}
		}
	case recTransferRange:
		if b, err := wire.DecodeTransferRange(payload); err == nil && b.Dim >= 0 && b.Dim < len(m.dims) {
			// Replay unconditionally marks the ID adopted; the subscriptions
			// were stored pre-crash, so re-install them too (idempotent adds).
			m.adoptedMu.Lock()
			if b.TransferID != 0 {
				m.adopted[b.TransferID] = true
			}
			m.adoptedMu.Unlock()
			for i, s := range b.Subs {
				addr := ""
				if i < len(b.DeliverAddrs) {
					addr = b.DeliverAddrs[i]
				}
				m.store(b.Dim, s, addr)
			}
		}
	case recTable:
		if t, err := partition.Decode(payload); err == nil {
			m.tableMu.Lock()
			if m.table == nil || t.Version() > m.table.Version() {
				m.table = t
			}
			m.tableMu.Unlock()
		}
	}
	return nil
}

// journal appends one already-encoded mutation to the WAL and folds the
// journal into a snapshot when due. A nil journal (in-memory node) is a
// no-op; append errors degrade durability, not service — in-memory state is
// already mutated — but they are never silent: every failure counts into
// matcher.journal_errors and flips the store.health gauge, and the health
// machine handles the segment itself (repair, degrade, or fail). Must not
// be called with any dimension lock held (the snapshot pass takes them all).
func (m *Matcher) journal(kind uint8, payload []byte) {
	if m.jnl == nil {
		return
	}
	if err := m.jnl.Append(kind, payload); err != nil {
		m.JournalErrors.Add(1)
	}
	if m.jnl.SnapshotDue() {
		m.snapshotJournal()
	}
}

// snapshotJournal serializes the full subscription state (every dimension's
// stored copies plus the current table) as a record stream and folds the
// WAL into it.
func (m *Matcher) snapshotJournal() {
	var payload []byte
	for dim, ds := range m.dims {
		ds.mu.RLock()
		for _, s := range ds.idx.All(nil) {
			body := (&wire.StoreBody{Dim: dim, Sub: s, DeliverAddr: ds.addrs[s.ID]}).Encode()
			payload = store.AppendRecord(payload, recSubStore, body)
		}
		ds.mu.RUnlock()
	}
	if t := m.Table(); t != nil {
		payload = store.AppendRecord(payload, recTable, t.Encode())
	}
	// Persist the adoption guard: one sub-less transfer-range record per
	// adopted ID, replayed through the same applyRecord path.
	m.adoptedMu.Lock()
	ids := make([]uint64, 0, len(m.adopted))
	for id := range m.adopted {
		ids = append(ids, id)
	}
	m.adoptedMu.Unlock()
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	for _, id := range ids {
		body := (&wire.TransferRangeBody{TransferID: id, High: 1}).Encode()
		payload = store.AppendRecord(payload, recTransferRange, body)
	}
	if err := m.jnl.Snapshot(payload); err != nil {
		m.JournalErrors.Add(1)
	}
}

// StoreHealth is the journal's durability state (Healthy on in-memory
// nodes: there is no durability guarantee to lose).
func (m *Matcher) StoreHealth() store.Health {
	if m.jnl == nil {
		return store.Healthy
	}
	return m.jnl.Health()
}

// closeJournal syncs and closes the journal at Stop.
func (m *Matcher) closeJournal() {
	if m.jnl != nil {
		_ = m.jnl.Close()
	}
}

// Journal exposes the durable store (nil on in-memory nodes), for tests and
// tooling.
func (m *Matcher) Journal() *store.Store { return m.jnl }
