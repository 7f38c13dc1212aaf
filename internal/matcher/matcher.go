// Package matcher implements a BlueDove back-end matching server: it stores
// the subscriptions assigned to it along each searchable dimension in
// separate indexed sets (paper Section III-A), matches forwarded
// publications on per-dimension SEDA stages (Section III-B), delivers
// matches to subscribers (directly or via their dispatcher's queue), pushes
// per-dimension load reports to dispatchers, participates in the gossip
// overlay, and hands segments over during elasticity events (Section III-C).
package matcher

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/index"
	"bluedove/internal/metrics"
	"bluedove/internal/partition"
	"bluedove/internal/store"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// Config parameterizes a Matcher.
type Config struct {
	// ID is the node's cluster identifier; required.
	ID core.NodeID
	// Addr is the listen address; required (":0"-style addresses allowed).
	Addr string
	// Space is the attribute space; required.
	Space *core.Space
	// Transport carries all node traffic; required.
	Transport transport.Transport
	// Seeds are gossip bootstrap addresses.
	Seeds []string
	// QueueDepth bounds each dimension stage's queue (default 65536).
	QueueDepth int
	// ReportInterval is the load-report cadence (default 1s).
	ReportInterval time.Duration
	// ReportDeltaFrac suppresses reports below this relative change
	// (default 0.1).
	ReportDeltaFrac float64
	// GossipInterval is the gossip round period (default 1s).
	GossipInterval time.Duration
	// FailAfter is the gossip liveness timeout (default 10s).
	FailAfter time.Duration
	// PruneGrace delays post-table-change pruning so stale-routed messages
	// still match (default 3s).
	PruneGrace time.Duration
	// Generation is the gossip incarnation (default: boot time).
	Generation uint64
	// Now supplies the clock (default time.Now).
	Now func() int64
	// Telemetry, when non-nil, enables the observability subsystem on this
	// node: traced publications get their dequeue/match/deliver hops
	// stamped and returned on acks, and every counter, per-stage λ/μ/queue
	// gauge and latency histogram is registered under the node's registry.
	Telemetry *telemetry.Telemetry
	// DataDir, when non-empty, makes the matcher's subscription state
	// durable: every store, remove, transfer and table adoption is journaled
	// to a write-ahead log in this directory (see internal/store), folded
	// into periodic snapshots, and replayed on Start — a restarted matcher
	// resumes with its exact pre-crash subscription sets. Empty (the
	// default) keeps all state in memory.
	DataDir string
	// Fsync is the journal sync policy (default store.FsyncInterval); only
	// meaningful with DataDir set.
	Fsync store.Fsync
	// SnapshotEvery folds the journal into a snapshot after this many
	// appends (default: the store package default).
	SnapshotEvery int
	// FS is the journal's filesystem seam (default: the OS passthrough);
	// internal/chaos injects disk faults through it. Only meaningful with
	// DataDir set.
	FS store.FS
	// FailPolicy decides what an unrepairable journal disk fault does to
	// this node: FailStop (default), DegradeToMemory, or Shed.
	FailPolicy store.FailPolicy
	// OnStoreFailure, when non-nil, is invoked once (on its own goroutine)
	// when the journal transitions to store.Failed — the cluster wires it
	// to the node's crash path so FailStop actually stops.
	OnStoreFailure func(error)
}

func (c *Config) defaults() error {
	if c.ID == 0 || c.Addr == "" || c.Space == nil || c.Transport == nil {
		return errors.New("matcher: ID, Addr, Space and Transport are required")
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 65536
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.ReportDeltaFrac <= 0 {
		c.ReportDeltaFrac = 0.1
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 10 * time.Second
	}
	if c.PruneGrace <= 0 {
		c.PruneGrace = 3 * time.Second
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return nil
}

// dimSet is one per-dimension subscription set: its index, the delivery
// addresses of the subscriptions it holds, and the SEDA stage (one worker,
// paper Section III-B1) matching messages forwarded along this dimension.
//
// Concurrency contract: index mutations (Add/Remove) take the write lock
// and arrive from the transport handler paths; the stage's match path takes
// the read lock once per item.
type dimSet struct {
	mu    sync.RWMutex
	idx   *index.Bucket
	addrs map[core.SubscriptionID]string
	stage *sedaStage
}

// subsCount returns the number of stored subscriptions.
func (ds *dimSet) subsCount() int {
	ds.mu.RLock()
	defer ds.mu.RUnlock()
	return ds.idx.Len()
}

// Matcher is a running matching server.
type Matcher struct {
	cfg  Config
	gsp  *gossip.Gossiper
	addr string
	dims []*dimSet

	tableMu sync.Mutex
	table   *partition.Table

	// adopted guards against double adoption of range transfers: a transfer
	// re-sent after a mid-handover crash carries the same TransferID and is
	// acknowledged without storing its subscriptions twice.
	adoptedMu sync.Mutex
	adopted   map[uint64]bool

	// jnl is the durable subscription journal (nil on in-memory nodes).
	jnl *store.Store

	stop chan struct{}
	// ready gates the transport handler until Start finishes initializing:
	// a restarted node's address is already known to gossiping peers, so
	// traffic can arrive between Listen and the end of Start.
	ready chan struct{}
	wg    sync.WaitGroup

	lastReport []forward.DimLoad

	// sendCopies reports whether the transport copies bodies on Send, so
	// pooled encode buffers may be recycled immediately (see
	// transport.Copying).
	sendCopies bool

	// Matched counts subscriptions matched (deliveries attempted, whether or
	// not a delivery address was known).
	Matched metrics.Counter
	// Delivered counts matched subscriptions actually sent a delivery.
	// Matched - Delivered is the undeliverable residue (subscriptions
	// registered without an address); throughput numbers must use Delivered
	// so they are not inflated by matches that never left the matcher.
	Delivered metrics.Counter
	// Processed counts messages matched (stage completions).
	Processed metrics.Counter
	// Dropped counts forwarded messages rejected by stage backpressure.
	Dropped metrics.Counter
	// BusyNacks counts busy NACKs sent back to dispatchers (one Busy entry
	// per rejected message).
	BusyNacks metrics.Counter
	// Shed counts publications whose TTL expired while queued; they are
	// acked but never matched.
	Shed metrics.Counter
	// JournalErrors counts journal appends and snapshots that failed (the
	// durability guarantee weakened or lost; see store.health for state).
	JournalErrors metrics.Counter
	// Scanned counts stored subscriptions examined by stab+verify across all
	// matched messages; Scanned/Processed is the live scanned-per-message
	// index-efficiency figure exported as matcher.scanned_per_msg.
	Scanned metrics.Counter
	// ReportBytes counts load-report traffic for overhead accounting.
	ReportBytes metrics.Counter

	// throttleNs, when positive, adds this many nanoseconds of synthetic
	// service time per dequeued message — a chaos hook that slows the
	// matcher's service rate (not its links) to drive stages into overload.
	throttleNs atomic.Int64

	// mutations counts subscription-set changes (stores, removals, prunes)
	// and versions the interest summary: a border whose cached version
	// still matches gets a cheap "unchanged" instead of a re-enumeration
	// (see summary.go).
	mutations atomic.Uint64

	// matchLatency observes dequeue→match-done per traced publication (ns).
	matchLatency *metrics.Histogram
}

// New builds a matcher (not yet started).
func New(cfg Config) (*Matcher, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	m := &Matcher{cfg: cfg, stop: make(chan struct{}), ready: make(chan struct{}),
		sendCopies:   transport.SendCopies(cfg.Transport),
		adopted:      make(map[uint64]bool),
		matchLatency: metrics.NewHistogram()}
	k := cfg.Space.K()
	m.dims = make([]*dimSet, k)
	for i := 0; i < k; i++ {
		m.dims[i] = &dimSet{
			idx:   index.NewBucket(cfg.Space, i, index.DefaultBuckets),
			addrs: make(map[core.SubscriptionID]string),
		}
	}
	return m, nil
}

// ID returns the matcher's node ID.
func (m *Matcher) ID() core.NodeID { return m.cfg.ID }

// Addr returns the bound listen address (valid after Start).
func (m *Matcher) Addr() string { return m.addr }

// Gossiper exposes the overlay view (for tests and tooling).
func (m *Matcher) Gossiper() *gossip.Gossiper { return m.gsp }

// Start binds the listener, joins the gossip overlay, and starts the
// matching stages and report loop.
func (m *Matcher) Start() error {
	// Recover durable state before the listener binds, so replay never
	// races live mutations.
	if err := m.openJournal(); err != nil {
		return err
	}
	addr, err := m.cfg.Transport.Listen(m.cfg.Addr, func(env *wire.Envelope) *wire.Envelope {
		<-m.ready
		return m.handle(env)
	})
	if err != nil {
		return err
	}
	m.addr = addr
	g, err := gossip.New(gossip.Config{
		ID:         m.cfg.ID,
		Addr:       addr,
		Role:       core.RoleMatcher,
		Transport:  m.cfg.Transport,
		Seeds:      m.cfg.Seeds,
		Interval:   m.cfg.GossipInterval,
		FailAfter:  m.cfg.FailAfter,
		Generation: m.cfg.Generation,
		Now:        m.cfg.Now,
	})
	if err != nil {
		return err
	}
	m.gsp = g
	for i, ds := range m.dims {
		ds.stage = newSedaStage(fmt.Sprintf("%v-dim%d", m.cfg.ID, i),
			m.cfg.QueueDepth, m.cfg.Now,
			func(it forwardItem) { m.matchItem(ds, it) })
	}
	if m.cfg.Telemetry != nil {
		m.registerTelemetry()
	}
	g.Start()
	m.wg.Add(2)
	go m.reportLoop()
	go m.tableLoop()
	close(m.ready)
	return nil
}

// Stop halts the matcher.
func (m *Matcher) Stop() {
	select {
	case <-m.stop:
		return
	default:
		close(m.stop)
	}
	m.gsp.Stop()
	for _, ds := range m.dims {
		if ds.stage != nil {
			ds.stage.Stop()
		}
	}
	m.wg.Wait()
	m.closeJournal()
}

// handle is the transport handler, dispatching by message kind.
func (m *Matcher) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindGossip:
		return m.gsp.HandleGossip(env)
	case wire.KindStore:
		b, err := wire.DecodeStore(env.Body)
		if err == nil && b.Dim >= 0 && b.Dim < len(m.dims) {
			m.store(b.Dim, b.Sub, b.DeliverAddr)
			m.journal(recSubStore, env.Body)
		}
		return nil
	case wire.KindUnsubscribe:
		if b, err := wire.DecodeUnsubscribe(env.Body); err == nil {
			m.unsubscribe(b.ID)
			m.journal(recSubRemove, env.Body)
		}
		return nil
	case wire.KindForward:
		b, err := wire.DecodeForward(env.Body)
		if err != nil || b.Dim < 0 || b.Dim >= len(m.dims) || len(b.Msg.Attrs) != len(m.dims) {
			return nil
		}
		st := m.dims[b.Dim].stage
		if st.EventLen() >= m.cfg.QueueDepth ||
			st.Enqueue(forwardItem{msg: b.Msg, from: env.From}) != nil {
			m.Dropped.Add(1)
			m.BusyNacks.Add(1)
			busy := [1]wire.BusyEntry{{ID: b.Msg.ID, Dim: b.Dim, QueueLen: st.EventLen()}}
			m.sendBusy(env.From, busy[:])
		}
		return nil
	case wire.KindForwardBatch:
		b, err := wire.DecodeForwardBatch(env.Body)
		if err != nil {
			return nil
		}
		m.enqueueBatch(b, env.From)
		return nil
	case wire.KindTransferRange:
		b, err := wire.DecodeTransferRange(env.Body)
		if err != nil || b.Dim < 0 || b.Dim >= len(m.dims) {
			return nil
		}
		if !m.adopt(b.TransferID) {
			return nil // duplicate of an already-adopted transfer
		}
		for i, s := range b.Subs {
			addr := ""
			if i < len(b.DeliverAddrs) {
				addr = b.DeliverAddrs[i]
			}
			m.store(b.Dim, s, addr)
		}
		m.journal(recTransferRange, env.Body)
		return nil
	case wire.KindHandover:
		if b, err := wire.DecodeHandover(env.Body); err == nil {
			m.handover(b)
		}
		return nil
	case wire.KindSummaryRequest:
		if b, err := wire.DecodeSummaryRequest(env.Body); err == nil {
			return m.handleSummaryRequest(b)
		}
		return nil
	case wire.KindTableRequest:
		m.tableMu.Lock()
		t := m.table
		m.tableMu.Unlock()
		if t == nil {
			return &wire.Envelope{Kind: wire.KindError, From: m.cfg.ID,
				Body: (&wire.ErrorBody{Text: "matcher: no table yet"}).Encode()}
		}
		return &wire.Envelope{Kind: wire.KindTableResponse, From: m.cfg.ID,
			Body: (&wire.TableResponseBody{Table: t.Encode()}).Encode()}
	default:
		return nil
	}
}

// store installs one subscription copy. Every Store, Transfer and journal-replay path comes through here, so this
// is where a copy without one predicate per dimension, which the indexes
// cannot hold, is dropped.
func (m *Matcher) store(dim int, s *core.Subscription, deliverAddr string) {
	if len(s.Predicates) != len(m.dims) {
		return
	}
	ds := m.dims[dim]
	ds.mu.Lock()
	ds.idx.Add(s)
	ds.addrs[s.ID] = deliverAddr
	ds.mu.Unlock()
	m.mutations.Add(1)
}

// unsubscribe removes a subscription from every dimension set.
func (m *Matcher) unsubscribe(id core.SubscriptionID) {
	removed := false
	for _, ds := range m.dims {
		ds.mu.Lock()
		if ds.idx.Remove(id) {
			delete(ds.addrs, id)
			removed = true
		}
		ds.mu.Unlock()
	}
	if removed {
		m.mutations.Add(1)
	}
}

// SubsOnDim returns the subscription count of one dimension set.
func (m *Matcher) SubsOnDim(dim int) int { return m.dims[dim].subsCount() }

// SetServiceThrottle adds d of synthetic service time per dequeued message
// (0 restores full speed). Used by overload chaos scenarios to throttle one
// matcher's service rate mid-burst — unlike a slow link, this backs messages
// up in the dimension stages and exercises the busy-NACK path.
func (m *Matcher) SetServiceThrottle(d time.Duration) { m.throttleNs.Store(int64(d)) }

// matchItem is the dimension stage handler. A single forward is matched as
// a one-message batch; its array lives on this goroutine's stack.
func (m *Matcher) matchItem(ds *dimSet, it forwardItem) {
	if d := m.throttleNs.Load(); d > 0 {
		time.Sleep(time.Duration(d) * time.Duration(it.count()))
	}
	msgs := it.msgs
	if msgs == nil {
		one := [1]*core.Message{it.msg}
		msgs = one[:]
	}
	m.matchBatch(ds, msgs, it.from)
}

// appendBody is any wire body that can encode itself into a scratch buffer.
type appendBody interface {
	AppendTo(buf []byte) []byte
	Encode() []byte
}

// envPool recycles envelope headers on the copying-transport send path. A
// copying transport consumes the whole envelope inside Send (it writes the
// frame before returning), so the struct can be reused like the body buffer.
var envPool = sync.Pool{New: func() any { return new(wire.Envelope) }}

// send encodes body and ships it, recycling the encode buffer and envelope
// when the transport copies on Send (TCP); on retaining transports (the
// in-process mesh) the body is encoded into a fresh allocation instead so
// pooled bytes never escape into a delivered message.
func (m *Matcher) send(addr string, kind wire.Kind, body appendBody) {
	if m.sendCopies {
		buf := wire.GetBuf()
		buf.B = body.AppendTo(buf.B)
		env := envPool.Get().(*wire.Envelope)
		env.Kind, env.From, env.Body = kind, m.cfg.ID, buf.B
		_ = m.cfg.Transport.Send(addr, env)
		env.Body = nil
		envPool.Put(env)
		wire.PutBuf(buf)
		return
	}
	_ = m.cfg.Transport.Send(addr, &wire.Envelope{Kind: kind, From: m.cfg.ID, Body: body.Encode()})
}

// adopt records a range-transfer idempotency key, returning false when the
// transfer was already adopted (the double-adoption guard).
func (m *Matcher) adopt(id uint64) bool {
	if id == 0 {
		return true // untagged transfer: no guard requested
	}
	m.adoptedMu.Lock()
	defer m.adoptedMu.Unlock()
	if m.adopted[id] {
		return false
	}
	m.adopted[id] = true
	return true
}

// handover ships every subscription overlapping the handed-over range to the
// target matcher as one range-bounded transfer frame (join, leave and split
// protocols). The frame carries the originator's idempotency key, so a
// handover re-issued after a crash mid-transfer produces a byte-identical
// TransferID and the target's adoption guard drops the duplicate.
func (m *Matcher) handover(b *wire.HandoverBody) {
	ds := m.dims[b.Dim]
	r := core.Range{Low: b.Low, High: b.High}
	ds.mu.RLock()
	subs := ds.idx.Overlapping(r, nil)
	addrs := make([]string, len(subs))
	for i, s := range subs {
		addrs[i] = ds.addrs[s.ID]
	}
	ds.mu.RUnlock()
	tid := b.TransferID
	if tid == 0 {
		tid = wire.TransferRangeID(m.cfg.ID, 0, b.Dim, b.Low, b.High)
	}
	body := (&wire.TransferRangeBody{TransferID: tid, Dim: b.Dim,
		Low: b.Low, High: b.High, Subs: subs, DeliverAddrs: addrs}).Encode()
	_ = m.cfg.Transport.Send(b.TargetAddr, &wire.Envelope{Kind: wire.KindTransferRange, From: m.cfg.ID, Body: body})
}

// SplitPoint returns the load-weighted cut point (partition.SplitPoint) for
// this matcher's dimension-dim subscriptions within r.
func (m *Matcher) SplitPoint(dim int, r core.Range) float64 {
	if dim < 0 || dim >= len(m.dims) {
		return r.Low + (r.High-r.Low)/2
	}
	ds := m.dims[dim]
	ds.mu.RLock()
	subs := ds.idx.Overlapping(r, nil)
	ds.mu.RUnlock()
	return partition.SplitPoint(subs, dim, r)
}

// reportLoop pushes per-dimension load reports to every dispatcher.
func (m *Matcher) reportLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.ReportInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.report()
		}
	}
}

// LoadSnapshot builds the current per-dimension load report.
func (m *Matcher) LoadSnapshot() []forward.DimLoad {
	now := m.cfg.Now()
	out := make([]forward.DimLoad, len(m.dims))
	for i, ds := range m.dims {
		subs := ds.subsCount()
		if ds.stage.ServiceCapacity() == 0 {
			m.seedStage(i)
		}
		out[i] = forward.DimLoad{
			Subs:        subs,
			QueueLen:    ds.stage.EventLen(),
			ArrivalRate: ds.stage.ArrivalRate(),
			MatchRate:   ds.stage.ServiceCapacity(),
			ReportedAt:  now,
		}
	}
	return out
}

// seedStage primes a cold stage's service estimate by timing one synthetic
// match against the stored set, so the first reports carry realistic costs.
func (m *Matcher) seedStage(dim int) {
	ds := m.dims[dim]
	ds.mu.RLock()
	all := ds.idx.All(nil)
	ds.mu.RUnlock()
	if len(all) == 0 {
		return
	}
	probe := all[0]
	attrs := make([]float64, m.cfg.Space.K())
	for i, p := range probe.Predicates {
		attrs[i] = (p.Low + p.High) / 2
	}
	msg := core.NewMessage(attrs, nil)
	sc := getScratch()
	start := time.Now()
	ds.mu.RLock()
	sc.hits, _ = ds.idx.MatchHits(msg, sc.hits[:0])
	sc.group(ds, msg)
	ds.mu.RUnlock()
	ns := float64(time.Since(start))
	putScratch(sc)
	if ns < 1 {
		ns = 1
	}
	ds.stage.SeedServiceTime(ns)
}

// report pushes the snapshot to all alive dispatchers when it changed more
// than the configured fraction (paper Section IV-C: 64-byte pushes on >10%
// change).
func (m *Matcher) report() {
	snap := m.LoadSnapshot()
	if !forward.ShouldReport(m.lastReport, snap, m.cfg.ReportDeltaFrac) {
		return
	}
	m.lastReport = snap
	body := (&wire.LoadReportBody{Loads: snap, Health: uint8(m.StoreHealth())}).Encode()
	env := &wire.Envelope{Kind: wire.KindLoadReport, From: m.cfg.ID, Body: body}
	for _, p := range m.gsp.Peers() {
		if p.Role == core.RoleDispatcher && p.Alive {
			if m.cfg.Transport.Send(p.Addr, env) == nil {
				m.ReportBytes.Add(int64(len(body)))
			}
		}
	}
}

// tableLoop adopts the freshest segment table seen in gossip and prunes
// no-longer-owned subscriptions after the grace period.
func (m *Matcher) tableLoop() {
	defer m.wg.Done()
	ticker := time.NewTicker(m.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-m.stop:
			return
		case <-ticker.C:
			m.adoptTable()
		}
	}
}

// TableKey is the gossip state key carrying the encoded segment table.
const TableKey = "table"

func (m *Matcher) adoptTable() {
	raw, _, ok := m.gsp.HighestState(TableKey)
	if !ok {
		return
	}
	t, err := partition.Decode(raw)
	if err != nil {
		return
	}
	m.tableMu.Lock()
	cur := m.table
	if cur != nil && t.Version() <= cur.Version() {
		m.tableMu.Unlock()
		return
	}
	m.table = t
	m.tableMu.Unlock()
	m.journal(recTable, raw)
	// Prune after the grace period so messages routed by stale dispatcher
	// tables still find their subscriptions.
	grace := m.cfg.PruneGrace
	tab := t
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		select {
		case <-m.stop:
			return
		case <-time.After(grace):
		}
		m.pruneTo(tab)
	}()
}

// pruneTo removes subscriptions whose predicate no longer overlaps this
// matcher's segment on each dimension under table t. (Replication-safeguard
// copies placed on neighbors are re-installed by dispatchers' reconcile
// pass; see the dispatcher package.)
func (m *Matcher) pruneTo(t *partition.Table) {
	m.tableMu.Lock()
	if m.table == nil || t.Version() < m.table.Version() {
		m.tableMu.Unlock()
		return // superseded
	}
	m.tableMu.Unlock()
	if !t.HasMatcher(m.cfg.ID) {
		return // removed from the table: keep serving until shut down
	}
	for dim, ds := range m.dims {
		// After a split a matcher may own several disjoint ranges on one
		// dimension; a subscription stays if it overlaps any of them.
		segs, err := t.SegmentsOf(m.cfg.ID, dim)
		if err != nil {
			continue
		}
		overlapsAny := func(r core.Range) bool {
			for _, seg := range segs {
				if r.Overlaps(seg) {
					return true
				}
			}
			return false
		}
		ds.mu.Lock()
		for _, s := range ds.idx.All(nil) {
			if !overlapsAny(s.Predicates[dim]) {
				ds.idx.Remove(s.ID)
				delete(ds.addrs, s.ID)
				m.mutations.Add(1)
			}
		}
		ds.mu.Unlock()
	}
}

// Table returns the matcher's current segment table (nil before the first
// gossip adoption).
func (m *Matcher) Table() *partition.Table {
	m.tableMu.Lock()
	defer m.tableMu.Unlock()
	return m.table
}
