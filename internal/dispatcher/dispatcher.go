// Package dispatcher implements a BlueDove front-end dispatching server
// (paper Section II-B): it accepts subscriptions and publications from
// clients, assigns subscriptions to matchers via the placement strategy
// (mPartition for BlueDove), forwards each publication one hop to the best
// candidate matcher chosen by the performance-aware forwarding policy
// (Section III-B), maintains the global segment-table view and per-matcher
// load reports, hosts polled delivery queues for indirect subscribers, and
// coordinates elasticity (matcher joins) and failure recovery.
package dispatcher

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/metrics"
	"bluedove/internal/partition"
	"bluedove/internal/placement"
	"bluedove/internal/store"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// TableKey is the gossip state key carrying the encoded segment table; it
// matches the matcher package's key.
const TableKey = "table"

// Config parameterizes a Dispatcher.
type Config struct {
	// ID is the node's cluster identifier; required.
	ID core.NodeID
	// Addr is the listen address; required.
	Addr string
	// Space is the attribute space; required.
	Space *core.Space
	// Transport carries all node traffic; required.
	Transport transport.Transport
	// Seeds are gossip bootstrap addresses.
	Seeds []string
	// Strategy is the placement strategy (default placement.BlueDove{}).
	Strategy placement.Strategy
	// Policy is the forwarding policy (default forward.Adaptive{}).
	Policy forward.Policy
	// TablePullInterval is the periodic table pull cadence (default 10s).
	TablePullInterval time.Duration
	// RecoveryDelay is the wait after failure detection before the leader
	// removes a dead matcher from the table (default 5s).
	RecoveryDelay time.Duration
	// GossipInterval is the gossip round period (default 1s).
	GossipInterval time.Duration
	// FailAfter is the gossip liveness timeout (default 10s).
	FailAfter time.Duration
	// QueueCap bounds each indirect-delivery subscriber queue.
	QueueCap int
	// Persistent enables at-least-once forwarding (the paper's Section VI
	// persistence future work): the dispatcher retains each forwarded
	// publication until a matcher acknowledges matching it, retransmitting
	// to other candidates on timeout — so matcher crashes lose no accepted
	// messages (duplicate deliveries are possible when an ack is lost).
	Persistent bool
	// RetryInterval is the retransmit timeout for unacked forwards
	// (default 2s).
	RetryInterval time.Duration
	// MaxInflight bounds retained unacked messages; beyond it new messages
	// fall back to best-effort forwarding (default 65536).
	MaxInflight int
	// Deprecated: has no effect; forwards are always batched per matcher
	// and flushed as soon as the flusher is free.
	ForwardLinger time.Duration
	// RetryBudget bounds busy/unreachable re-routes per publication: on a
	// busy NACK the dispatcher immediately retries the message at the
	// next-best candidate from the policy ranking (one extra hop, no timer
	// wait), at most this many times. The first re-route is immediate;
	// repeat offenders wait an exponential backoff with full jitter (see
	// RerouteBackoff). Zero selects the default (2); negative disables
	// busy re-routing entirely (NACKs are still counted).
	RetryBudget int
	// RerouteBackoff is the base backoff before the second and later
	// re-routes of one publication: re-route n>1 sleeps a uniformly random
	// duration in [0, RerouteBackoff<<(n-2)) (default 2ms).
	RerouteBackoff time.Duration
	// BreakerThreshold trips a destination's circuit breaker open after
	// this many consecutive busy/unreachable events; while open the
	// forwarding policies skip the destination during rank selection, and
	// after BreakerCooldown it is probed half-open. Zero selects the
	// default (5); negative disables circuit breaking.
	BreakerThreshold int
	// BreakerCooldown is how long a tripped destination is skipped before
	// the half-open probe (default 1s).
	BreakerCooldown time.Duration
	// AdmissionLimit bounds the dispatcher's tracked unacked publications
	// (inflight + pending re-route state): beyond it, new publications are
	// rejected at admission — publish-with-ack clients get a typed
	// overloaded error, fire-and-forget publishes are shed and counted —
	// instead of growing the tables without bound. Zero disables admission
	// control.
	AdmissionLimit int
	// MessageTTL stamps publications that carry no TTL of their own with
	// this time-to-live, so stale messages are shed at matcher dequeue
	// instead of being matched (0 = no TTL).
	MessageTTL time.Duration
	// Generation is the gossip incarnation (default: boot time).
	Generation uint64
	// Now supplies the clock (default time.Now).
	Now func() int64
	// Seed drives randomized choices (default derived from ID).
	Seed int64
	// Telemetry, when non-nil, enables the observability subsystem on this
	// node: publications are trace-sampled at ingest (per the bundle's
	// sampler), completed traces are retained, and every counter and
	// latency histogram is registered under the node's registry. Nil (the
	// default) keeps the forward path free of telemetry work beyond one
	// nil check.
	Telemetry *telemetry.Telemetry
	// DataDir, when non-empty, makes the dispatcher's state durable: the
	// subscription registry, the pending-forward table (Persistent mode)
	// and the ID counters are journaled to a write-ahead log in this
	// directory (see internal/store) and replayed on Start — a restarted
	// dispatcher re-installs its registry and retransmits every unacked
	// publication. Empty (the default) keeps all state in memory.
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
	// this node: FailStop (default), DegradeToMemory, or Shed. Under Shed
	// the dispatcher also refuses new persistent work at admission with a
	// wire.OverloadedPrefix-typed rejection once the journal degrades.
	FailPolicy store.FailPolicy
	// OnStoreFailure, when non-nil, is invoked once (on its own goroutine)
	// when the journal transitions to store.Failed — the cluster wires it
	// to the node's crash path so FailStop actually stops.
	OnStoreFailure func(error)
}

func (c *Config) defaults() error {
	if c.ID == 0 || c.Addr == "" || c.Space == nil || c.Transport == nil {
		return errors.New("dispatcher: ID, Addr, Space and Transport are required")
	}
	if c.Strategy == nil {
		c.Strategy = placement.BlueDove{}
	}
	if c.Policy == nil {
		c.Policy = forward.Adaptive{}
	}
	if c.TablePullInterval <= 0 {
		c.TablePullInterval = 10 * time.Second
	}
	if c.RecoveryDelay <= 0 {
		c.RecoveryDelay = 5 * time.Second
	}
	if c.GossipInterval <= 0 {
		c.GossipInterval = time.Second
	}
	if c.FailAfter <= 0 {
		c.FailAfter = 10 * time.Second
	}
	if c.RetryInterval <= 0 {
		c.RetryInterval = 2 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 65536
	}
	if c.RetryBudget == 0 {
		c.RetryBudget = 2
	}
	if c.RerouteBackoff <= 0 {
		c.RerouteBackoff = 2 * time.Millisecond
	}
	if c.BreakerThreshold == 0 {
		c.BreakerThreshold = 5
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID) * 40503
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return nil
}

// regEntry is one registered subscription plus its delivery address.
type regEntry struct {
	sub  *core.Subscription
	addr string
}

// Dispatcher is a running front-end server.
type Dispatcher struct {
	cfg  Config
	gsp  *gossip.Gossiper
	addr string

	mu      sync.Mutex
	table   *partition.Table
	loads   map[core.NodeID][]forward.DimLoad
	pending map[core.NodeID][]int
	// health tracks each matcher's reported durability state (absent:
	// healthy). Failed matchers are vetoed by Routable; Degraded ones are
	// deprioritized at rank time.
	health   map[core.NodeID]store.Health
	registry map[core.SubscriptionID]regEntry
	nextSub  uint64
	nextMsg  uint64
	rng      *rand.Rand

	queues *QueueStore

	// inflight retains unacked forwards for retransmission (persistence).
	inflight map[core.MessageID]*inflightMsg

	// routes retains recent non-persistent forwards so a busy NACK can be
	// re-routed to an alternate candidate (Persistent mode keeps the same
	// state in inflight instead). Entries die on ack or expiry.
	routes map[core.MessageID]*routeState

	// breaker is the per-destination circuit breaker (nil when disabled; a
	// nil breaker is always closed).
	breaker *forward.Breaker

	// stopping guards wg.Add from handler goroutines racing Stop's Wait.
	stopping bool

	// batcher coalesces forwards per destination matcher.
	batcher *forwardBatcher

	// jnl is the durable state journal (nil on in-memory nodes).
	jnl *store.Store

	stop chan struct{}
	// ready gates the transport handler until Start finishes initializing:
	// a restarted node's address is already known to gossiping peers, so
	// traffic can arrive between Listen and the end of Start.
	ready chan struct{}
	wg    sync.WaitGroup

	// Published counts accepted publications.
	Published metrics.Counter
	// Forwarded counts publications sent to a matcher.
	Forwarded metrics.Counter
	// DroppedNoCandidate counts publications with no alive candidate, and
	// untracked ones whose forward frame could not be sent.
	DroppedNoCandidate metrics.Counter
	// PullBytes counts table-pull response traffic.
	PullBytes metrics.Counter
	// Retransmits counts persistence re-forwards of unacked messages.
	Retransmits metrics.Counter
	// ForwardBatches counts ForwardBatch frames sent; Forwarded /
	// ForwardBatches is the achieved amortization factor.
	ForwardBatches metrics.Counter
	// BusyReceived counts busy NACKs received from matchers.
	BusyReceived metrics.Counter
	// Rerouted counts publications re-forwarded to an alternate candidate
	// after a busy NACK or a failed send.
	Rerouted metrics.Counter
	// Overloaded counts publications rejected at admission control.
	Overloaded metrics.Counter
	// JournalErrors counts journal appends and snapshots that failed (the
	// durability guarantee weakened or lost; see store.health for state).
	JournalErrors metrics.Counter

	// fwdLatency observes ingest→ack per traced publication (ns).
	fwdLatency *metrics.Histogram
	// e2eLatency observes publish→deliver per traced publication (ns).
	e2eLatency *metrics.Histogram
}

// inflightMsg is one retained unacked publication.
type inflightMsg struct {
	msg      *core.Message
	tried    map[core.NodeID]bool
	deadline int64 // next retransmit time (ns)
	attempts int
	reroutes int // busy re-routes consumed (bounded by RetryBudget)
}

// routeState is one recent non-persistent forward retained for busy
// re-routing: the message, the candidates already tried, the re-routes
// consumed, and when the entry may be swept.
type routeState struct {
	msg      *core.Message
	tried    map[core.NodeID]bool
	reroutes int
	expires  int64
}

// New builds a dispatcher (not yet started).
func New(cfg Config) (*Dispatcher, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	d := &Dispatcher{
		cfg:        cfg,
		loads:      make(map[core.NodeID][]forward.DimLoad),
		pending:    make(map[core.NodeID][]int),
		health:     make(map[core.NodeID]store.Health),
		registry:   make(map[core.SubscriptionID]regEntry),
		inflight:   make(map[core.MessageID]*inflightMsg),
		routes:     make(map[core.MessageID]*routeState),
		rng:        rand.New(rand.NewSource(cfg.Seed)),
		queues:     NewQueueStore(cfg.QueueCap),
		stop:       make(chan struct{}),
		ready:      make(chan struct{}),
		fwdLatency: metrics.NewHistogram(),
		e2eLatency: metrics.NewHistogram(),
	}
	if cfg.BreakerThreshold > 0 {
		d.breaker = forward.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now)
	}
	d.batcher = newForwardBatcher(d)
	return d, nil
}

// ID returns the dispatcher's node ID.
func (d *Dispatcher) ID() core.NodeID { return d.cfg.ID }

// Addr returns the bound listen address (valid after Start).
func (d *Dispatcher) Addr() string { return d.addr }

// Gossiper exposes the overlay view.
func (d *Dispatcher) Gossiper() *gossip.Gossiper { return d.gsp }

// Queues exposes the indirect-delivery queue store.
func (d *Dispatcher) Queues() *QueueStore { return d.queues }

// Start binds the listener, joins the gossip overlay and starts the table
// maintenance loops.
func (d *Dispatcher) Start() error {
	// Recover durable state before the listener binds, so replay never
	// races live traffic.
	if err := d.openJournal(); err != nil {
		return err
	}
	addr, err := d.cfg.Transport.Listen(d.cfg.Addr, func(env *wire.Envelope) *wire.Envelope {
		<-d.ready
		return d.handle(env)
	})
	if err != nil {
		return err
	}
	d.addr = addr
	g, err := gossip.New(gossip.Config{
		ID:         d.cfg.ID,
		Addr:       addr,
		Role:       core.RoleDispatcher,
		Transport:  d.cfg.Transport,
		Seeds:      d.cfg.Seeds,
		Interval:   d.cfg.GossipInterval,
		FailAfter:  d.cfg.FailAfter,
		Generation: d.cfg.Generation,
		Now:        d.cfg.Now,
	})
	if err != nil {
		return err
	}
	d.gsp = g
	g.OnLivenessChange(d.onLiveness)
	g.Start()
	if d.cfg.Telemetry != nil {
		d.registerTelemetry()
	}
	d.wg.Add(3)
	go d.tableWatchLoop()
	go d.tablePullLoop()
	go d.flushLoop()
	if d.cfg.Persistent {
		d.wg.Add(1)
		go d.retransmitLoop()
	}
	if !d.cfg.Persistent && d.cfg.RetryBudget > 0 {
		d.wg.Add(1)
		go d.sweepRoutesLoop()
	}
	close(d.ready)
	return nil
}

// Stop halts the dispatcher.
func (d *Dispatcher) Stop() {
	select {
	case <-d.stop:
		return
	default:
		close(d.stop)
	}
	d.mu.Lock()
	d.stopping = true
	d.mu.Unlock()
	d.gsp.Stop()
	d.wg.Wait()
	d.closeJournal()
}

// SetTable installs (and publishes via gossip) a segment table. Used at
// bootstrap and by join/recovery.
func (d *Dispatcher) SetTable(t *partition.Table) {
	d.mu.Lock()
	if d.table != nil && t.Version() <= d.table.Version() {
		d.mu.Unlock()
		return
	}
	d.table = t
	d.mu.Unlock()
	d.gsp.SetState(TableKey, t.Encode(), t.Version())
	d.reconcile(t)
}

// Table returns the dispatcher's current table view (nil before bootstrap).
func (d *Dispatcher) Table() *partition.Table {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.table
}

// --- forward.LoadView ----------------------------------------------------

// Load implements forward.LoadView: the last report plus this dispatcher's
// own not-yet-reported forwards, scaled by the dispatcher count (see
// forward.DimLoad.PendingLocal).
func (d *Dispatcher) Load(node core.NodeID, dim int) (forward.DimLoad, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	ls, ok := d.loads[node]
	if !ok || dim >= len(ls) {
		return forward.DimLoad{}, false
	}
	l := ls[dim]
	if p := d.pending[node]; dim < len(p) {
		l.PendingLocal = float64(p[dim]) * float64(d.dispatcherCountLocked())
	}
	return l, true
}

// Alive implements forward.LoadView via gossip liveness.
func (d *Dispatcher) Alive(node core.NodeID) bool { return d.gsp.Alive(node) }

// Routable implements forward.RouteFilter: a destination whose circuit
// breaker is open — or whose journal reported store.Failed — is skipped by
// every policy during rank selection. With circuit breaking disabled only
// the health veto applies.
func (d *Dispatcher) Routable(node core.NodeID) bool {
	d.mu.Lock()
	failed := d.health[node] == store.Failed
	d.mu.Unlock()
	return !failed && d.breaker.Routable(node)
}

// Deprioritized implements forward.Deprioritizer: a matcher whose journal
// reported a degraded (non-durable) state ranks after every healthy
// candidate, so it only receives forwards when nothing healthier is alive.
func (d *Dispatcher) Deprioritized(node core.NodeID) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.health[node] == store.Degraded
}

// plainView is d's LoadView without the RouteFilter: the ranking fallback
// when every candidate's breaker is open (sending somewhere beats dropping).
type plainView struct{ d *Dispatcher }

func (v plainView) Load(node core.NodeID, dim int) (forward.DimLoad, bool) {
	return v.d.Load(node, dim)
}
func (v plainView) Alive(node core.NodeID) bool { return v.d.Alive(node) }

func (d *Dispatcher) dispatcherCountLocked() int {
	n := 0
	for _, p := range d.gsp.Peers() {
		if p.Role == core.RoleDispatcher && p.Alive {
			n++
		}
	}
	if n == 0 {
		n = 1
	}
	return n
}

// --- transport handler ----------------------------------------------------

func (d *Dispatcher) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindGossip:
		return d.gsp.HandleGossip(env)
	case wire.KindSubscribe:
		return d.handleSubscribe(env)
	case wire.KindUnsubscribe:
		if b, err := wire.DecodeUnsubscribe(env.Body); err == nil {
			d.handleUnsubscribe(b.ID)
		}
		return nil
	case wire.KindPublish:
		if b, err := d.decodePublish(env.Body); err == nil {
			d.handlePublish(b.Msg, false)
		}
		return nil
	case wire.KindPublishReq:
		b, err := d.decodePublish(env.Body)
		if err != nil {
			return errEnv(d.cfg.ID, err)
		}
		return d.handlePublish(b.Msg, true)
	case wire.KindLoadReport:
		if b, err := wire.DecodeLoadReport(env.Body); err == nil {
			d.mu.Lock()
			d.loads[env.From] = b.Loads
			d.pending[env.From] = make([]int, len(b.Loads))
			if h := store.Health(b.Health); h == store.Healthy {
				delete(d.health, env.From)
			} else {
				d.health[env.From] = h
			}
			d.mu.Unlock()
		}
		return nil
	case wire.KindDeliverBatch:
		if b, err := wire.DecodeDeliverBatch(env.Body); err == nil {
			for i := range b.Deliveries {
				d.queues.Push(b.Deliveries[i].Subscriber, b.Deliveries[i])
			}
		}
		return nil
	case wire.KindPoll:
		b, err := wire.DecodePoll(env.Body)
		if err != nil {
			return errEnv(d.cfg.ID, err)
		}
		ds := d.queues.Poll(b.Subscriber, int(b.Max))
		return &wire.Envelope{Kind: wire.KindPollResponse, From: d.cfg.ID,
			Body: (&wire.PollResponseBody{Deliveries: ds}).Encode()}
	case wire.KindForwardAckBatch:
		if b, err := wire.DecodeForwardAckBatch(env.Body); err == nil {
			if len(b.IDs) > 0 {
				d.breaker.Success(env.From)
			}
			var acked []core.MessageID
			d.mu.Lock()
			for _, id := range b.IDs {
				delete(d.routes, id)
				if _, was := d.inflight[id]; was {
					delete(d.inflight, id)
					acked = append(acked, id)
				}
			}
			d.mu.Unlock()
			for _, id := range acked {
				d.journalID(recAck, uint64(id))
			}
			if d.cfg.Telemetry != nil {
				for i := range b.Traces {
					d.completeTrace(b.Traces[i].Msg, &b.Traces[i].Ctx)
				}
			}
			// Per-item busy accounting: re-route exactly the rejected items.
			for i := range b.Busy {
				d.handleBusy(env.From, b.Busy[i].ID, b.Busy[i].Dim, b.Busy[i].QueueLen)
			}
		}
		return nil
	case wire.KindJoin:
		return d.handleJoin(env)
	case wire.KindTableRequest:
		d.mu.Lock()
		t := d.table
		d.mu.Unlock()
		if t == nil {
			return errEnv(d.cfg.ID, errors.New("dispatcher: no table yet"))
		}
		return &wire.Envelope{Kind: wire.KindTableResponse, From: d.cfg.ID,
			Body: (&wire.TableResponseBody{Table: t.Encode()}).Encode()}
	default:
		return nil
	}
}

// decodePublish decodes a publish body and rejects a message whose attribute
// count is not the space's dimension count: partitioning and matching index
// the attributes by dimension. Values outside a dimension are accepted.
func (d *Dispatcher) decodePublish(body []byte) (*wire.PublishBody, error) {
	b, err := wire.DecodePublish(body)
	if err != nil {
		return nil, err
	}
	if n, k := len(b.Msg.Attrs), d.cfg.Space.K(); n != k {
		return nil, fmt.Errorf("dispatcher: publication has %d attributes, space has %d dimensions", n, k)
	}
	return b, nil
}

func errEnv(from core.NodeID, err error) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindError, From: from,
		Body: (&wire.ErrorBody{Text: err.Error()}).Encode()}
}

// handleSubscribe registers a subscription and installs it on matchers.
func (d *Dispatcher) handleSubscribe(env *wire.Envelope) *wire.Envelope {
	b, err := wire.DecodeSubscribe(env.Body)
	if err != nil {
		return errEnv(d.cfg.ID, err)
	}
	sub := b.Sub
	if err := sub.Validate(d.cfg.Space); err != nil {
		return errEnv(d.cfg.ID, err)
	}
	deliverAddr := b.DeliverAddr
	if deliverAddr == "" {
		// Indirect mode: matches land in this dispatcher's queue store.
		deliverAddr = d.addr
	}
	d.mu.Lock()
	if sub.ID == 0 {
		d.nextSub++
		// Node-unique ID space: high bits carry the dispatcher ID so
		// concurrent dispatchers never collide.
		sub.ID = core.SubscriptionID(uint64(d.cfg.ID)<<40 | d.nextSub)
	}
	d.registry[sub.ID] = regEntry{sub: sub, addr: deliverAddr}
	t := d.table
	d.mu.Unlock()
	if d.jnl != nil {
		// Re-encode rather than journaling env.Body: sub.ID may have just
		// been assigned.
		d.journal(recRegAdd, (&wire.SubscribeBody{Sub: sub, DeliverAddr: deliverAddr}).Encode())
	}
	if t == nil {
		return errEnv(d.cfg.ID, errors.New("dispatcher: cluster not bootstrapped"))
	}
	d.installSub(t, sub, deliverAddr)
	ack := &wire.SubscribeAckBody{ID: sub.ID, QueueHandle: uint64(sub.Subscriber)}
	return &wire.Envelope{Kind: wire.KindSubscribeAck, From: d.cfg.ID, Body: ack.Encode()}
}

// installSub sends one Store per (matcher, dimension) placement.
func (d *Dispatcher) installSub(t *partition.Table, sub *core.Subscription, deliverAddr string) {
	for _, a := range d.cfg.Strategy.Assign(t, sub) {
		addr, ok := d.gsp.AddrOf(a.Node)
		if !ok {
			continue
		}
		body := (&wire.StoreBody{Dim: a.Dim, Sub: sub, DeliverAddr: deliverAddr}).Encode()
		_ = d.cfg.Transport.Send(addr, &wire.Envelope{Kind: wire.KindStore, From: d.cfg.ID, Body: body})
	}
}

// handleUnsubscribe removes the subscription from every matcher that might
// hold it.
func (d *Dispatcher) handleUnsubscribe(id core.SubscriptionID) {
	d.mu.Lock()
	delete(d.registry, id)
	d.mu.Unlock()
	d.journalID(recRegRemove, uint64(id))
	body := (&wire.UnsubscribeBody{ID: id}).Encode()
	for _, p := range d.gsp.Peers() {
		if p.Role == core.RoleMatcher {
			_ = d.cfg.Transport.Send(p.Addr, &wire.Envelope{Kind: wire.KindUnsubscribe, From: d.cfg.ID, Body: body})
		}
	}
}

// handlePublish stamps the message and forwards it one hop to the best
// candidate matcher (paper Section III-B). wantAck selects the
// request/response publish path (KindPublishReq): the returned envelope is
// a PublishAck on admission, or an Error whose text starts with
// wire.OverloadedPrefix when admission control rejects the publication;
// fire-and-forget publishes (wantAck false) always return nil.
func (d *Dispatcher) handlePublish(msg *core.Message, wantAck bool) *wire.Envelope {
	// Durability shedding: a journal degraded under the Shed policy refuses
	// new persistent work with a typed overload-style rejection instead of
	// acking publications whose durability guarantee it can no longer honor.
	if d.jnl != nil && d.cfg.FailPolicy == store.Shed && d.jnl.Health() != store.Healthy {
		d.Overloaded.Add(1)
		if wantAck {
			return errEnv(d.cfg.ID, fmt.Errorf("%sdispatcher %v is shedding persistent work (journal degraded)",
				wire.OverloadedPrefix, d.cfg.ID))
		}
		return nil
	}
	// Edge admission control: reject before accepting any state when the
	// unacked-publication tables are at their bound, instead of growing
	// them without limit under sustained overload.
	if lim := d.cfg.AdmissionLimit; lim > 0 {
		d.mu.Lock()
		over := len(d.inflight)+len(d.routes) >= lim
		d.mu.Unlock()
		if over {
			d.Overloaded.Add(1)
			if wantAck {
				return errEnv(d.cfg.ID, fmt.Errorf("%sdispatcher %v has %d unacked publications",
					wire.OverloadedPrefix, d.cfg.ID, lim))
			}
			return nil
		}
	}
	now := d.cfg.Now()
	msg.PublishedAt = now
	if msg.TTL == 0 && d.cfg.MessageTTL > 0 {
		msg.TTL = int64(d.cfg.MessageTTL)
	}
	d.Published.Add(1)
	d.mu.Lock()
	if msg.ID == 0 {
		d.nextMsg++
		// Node-unique ID space, mirroring subscription IDs.
		msg.ID = core.MessageID(uint64(d.cfg.ID)<<40 | d.nextMsg)
	}
	t := d.table
	// Persistent mode registers the in-flight entry before the frame can
	// leave: a ForwardAck racing back must find it, or the entry added
	// afterwards would be retransmitted although already acked.
	var inf *inflightMsg
	if d.cfg.Persistent && t != nil && len(d.inflight) < d.cfg.MaxInflight {
		inf = &inflightMsg{
			msg:      msg,
			tried:    map[core.NodeID]bool{},
			deadline: now + int64(d.cfg.RetryInterval),
		}
		d.inflight[msg.ID] = inf
	}
	d.mu.Unlock()
	if tel := d.cfg.Telemetry; tel != nil {
		if msg.Trace == nil && tel.Sampler.Sample() {
			msg.Trace = &core.TraceCtx{}
		}
		if msg.Trace != nil {
			if msg.Trace.ID == 0 {
				msg.Trace.ID = core.TraceID(msg.ID)
			}
			msg.Trace.Dispatcher = d.cfg.ID
			// A client that pre-sampled already stamped HopPublish on its
			// own clock; otherwise publish and ingest coincide here.
			msg.Trace.Stamp(core.HopPublish, now)
			msg.Trace.Stamp(core.HopIngest, now)
		}
	}
	if t == nil {
		d.DroppedNoCandidate.Add(1)
		if wantAck {
			return errEnv(d.cfg.ID, errors.New("dispatcher: cluster not bootstrapped"))
		}
		return nil
	}
	sent, to := d.forwardOnce(t, msg, nil)
	if d.cfg.Persistent {
		// Not sent: no candidate is reachable right now — e.g. every owner
		// of this point just crashed. The publication is already accepted,
		// so the entry stays with nothing tried: recovery reassigns the
		// dead matcher's segments and the retransmit loop re-forwards to
		// the new owners.
		if sent && inf != nil {
			d.mu.Lock()
			inf.tried[to] = true
			d.mu.Unlock()
		}
		// Journaled even past the inflight cap so the message-ID watermark
		// survives a restart (the replay applies the same cap to the rebuilt
		// table; only the counter always advances).
		if d.jnl != nil {
			d.journal(recPending, (&wire.PublishBody{Msg: msg}).Encode())
		}
		return d.publishAck(msg, wantAck)
	}
	if sent {
		return d.publishAck(msg, wantAck)
	}
	d.DroppedNoCandidate.Add(1)
	if wantAck {
		return errEnv(d.cfg.ID, errors.New("dispatcher: no alive candidate matcher"))
	}
	return nil
}

// publishAck builds the PublishAck response for request/response publishes.
func (d *Dispatcher) publishAck(msg *core.Message, wantAck bool) *wire.Envelope {
	if !wantAck {
		return nil
	}
	return &wire.Envelope{Kind: wire.KindPublishAck, From: d.cfg.ID,
		Body: (&wire.PublishAckBody{ID: msg.ID}).Encode()}
}

// forwardOnce hands msg to the batcher for its best candidate not in skip,
// reporting success and the chosen matcher. All state an answer from the
// matcher reads (the route entry, the pending count, the trace) is recorded
// before the batcher can ship the frame.
func (d *Dispatcher) forwardOnce(t *partition.Table, msg *core.Message,
	skip map[core.NodeID]bool) (bool, core.NodeID) {
	now := d.cfg.Now()
	cands := d.cfg.Strategy.Candidates(t, msg)
	ranked := d.cfg.Policy.Rank(now, cands, d)
	if len(ranked) == 0 && d.breaker != nil {
		// Every candidate's breaker is open: rank again without the filter —
		// forwarding to an overloaded matcher still beats dropping.
		ranked = d.cfg.Policy.Rank(now, cands, plainView{d})
	}
	for _, c := range ranked {
		if skip[c.Node] {
			continue
		}
		addr, ok := d.gsp.AddrOf(c.Node)
		if !ok {
			continue
		}
		if msg.Trace != nil && skip == nil {
			// First forward of a traced publication: record the chosen hop
			// before encoding so the frame carries it. Retransmissions
			// (skip != nil) leave the original stamps in place — the context
			// may already be shared with a concurrent batch encoder.
			msg.Trace.Matcher = c.Node
			msg.Trace.Dim = c.Dim
			msg.Trace.Stamp(core.HopForward, now)
		}
		d.mu.Lock()
		if skip == nil && !d.cfg.Persistent && d.cfg.RetryBudget > 0 {
			// First forward: a busy NACK or a failed send must find the
			// route entry, however early it comes back.
			d.trackRouteLocked(msg, c.Node, now)
		}
		p, ok := d.pending[c.Node]
		if !ok || len(p) != d.cfg.Space.K() {
			p = make([]int, d.cfg.Space.K())
			d.pending[c.Node] = p
		}
		if c.Dim < len(p) {
			p[c.Dim]++
		}
		d.mu.Unlock()
		if msg.Trace != nil && skip == nil {
			if tel := d.cfg.Telemetry; tel != nil {
				tel.Tracer.Await(msg.ID, msg.Trace, now)
			}
		}
		d.batcher.add(c.Node, addr, c.Dim, msg)
		d.Forwarded.Add(1)
		return true, c.Node
	}
	return false, 0
}

// retransmitLoop re-forwards unacked messages past their deadline.
func (d *Dispatcher) retransmitLoop() {
	defer d.wg.Done()
	// Half the retry interval keeps deadline overshoot under 50%; the clamp
	// keeps a sub-2ns RetryInterval (tests shrink it aggressively) from
	// panicking time.NewTicker and a tiny one from busy-spinning.
	tick := d.cfg.RetryInterval / 2
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.retransmitDue()
		}
	}
}

// maxRetransmitAttempts bounds per-message retransmissions.
const maxRetransmitAttempts = 20

func (d *Dispatcher) retransmitDue() {
	now := d.cfg.Now()
	type dueMsg struct {
		inf   *inflightMsg
		tried map[core.NodeID]bool
	}
	d.mu.Lock()
	t := d.table
	var due []dueMsg
	for id, inf := range d.inflight {
		if inf.deadline > now {
			continue
		}
		inf.attempts++
		if inf.attempts > maxRetransmitAttempts {
			delete(d.inflight, id)
			continue
		}
		inf.deadline = now + int64(d.cfg.RetryInterval)
		// Snapshot tried under the lock: the busy-NACK handler mutates the
		// live map concurrently (also under the lock).
		due = append(due, dueMsg{inf: inf, tried: copyTried(inf.tried)})
	}
	d.mu.Unlock()
	if t == nil {
		return
	}
	for _, dm := range due {
		sent, to := d.forwardOnce(t, dm.inf.msg, dm.tried)
		if !sent {
			// Every candidate tried or unreachable: widen the net next
			// round (membership may have changed).
			d.mu.Lock()
			dm.inf.tried = map[core.NodeID]bool{}
			d.mu.Unlock()
			continue
		}
		d.Retransmits.Add(1)
		d.mu.Lock()
		dm.inf.tried[to] = true
		d.mu.Unlock()
	}
}

// InflightLen returns the number of retained unacked messages.
func (d *Dispatcher) InflightLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.inflight)
}

// BreakerTrips returns the circuit breaker's closed→open transition count
// (0 when circuit breaking is disabled).
func (d *Dispatcher) BreakerTrips() int64 {
	if d.breaker == nil {
		return 0
	}
	return d.breaker.Tripped.Value()
}

// handleJoin runs the paper's join protocol: split the most loaded
// matcher's segment on every dimension, hand the halves to the new matcher,
// and publish the new table.
func (d *Dispatcher) handleJoin(env *wire.Envelope) *wire.Envelope {
	b, err := wire.DecodeJoin(env.Body)
	if err != nil {
		return errEnv(d.cfg.ID, err)
	}
	d.mu.Lock()
	t := d.table
	if t == nil {
		d.mu.Unlock()
		return &wire.Envelope{Kind: wire.KindJoinAck, From: d.cfg.ID,
			Body: (&wire.JoinAckBody{Err: "dispatcher: cluster not bootstrapped"}).Encode()}
	}
	victims := d.victimsLocked(t)
	d.mu.Unlock()

	newTab, handovers, err := t.Join(b.ID, victims)
	if err != nil {
		return &wire.Envelope{Kind: wire.KindJoinAck, From: d.cfg.ID,
			Body: (&wire.JoinAckBody{Err: err.Error()}).Encode()}
	}
	for _, h := range handovers {
		addr, ok := d.gsp.AddrOf(h.From)
		if !ok {
			continue
		}
		ho := (&wire.HandoverBody{Dim: h.Dim, Low: h.Range.Low, High: h.Range.High, TargetAddr: b.Addr,
			TransferID: wire.TransferRangeID(h.From, newTab.Version(), h.Dim, h.Range.Low, h.Range.High)}).Encode()
		_ = d.cfg.Transport.Send(addr, &wire.Envelope{Kind: wire.KindHandover, From: d.cfg.ID, Body: ho})
	}
	d.SetTable(newTab)
	return &wire.Envelope{Kind: wire.KindJoinAck, From: d.cfg.ID,
		Body: (&wire.JoinAckBody{Table: newTab.Encode()}).Encode()}
}

// victimsLocked picks, per dimension, the matcher with the deepest reported
// queue (ties broken by stored subscriptions) — the paper's "most loaded
// matcher in each dimension".
func (d *Dispatcher) victimsLocked(t *partition.Table) []core.NodeID {
	k := t.K()
	victims := make([]core.NodeID, k)
	for dim := 0; dim < k; dim++ {
		bestQ, bestSubs := -1, -1
		for _, id := range t.Matchers() {
			q, subs := 0, 0
			if ls, ok := d.loads[id]; ok && dim < len(ls) {
				q, subs = ls[dim].QueueLen, ls[dim].Subs
			}
			if q > bestQ || (q == bestQ && subs > bestSubs) {
				bestQ, bestSubs = q, subs
				victims[dim] = id
			}
		}
	}
	return victims
}

// onLiveness reacts to matcher failures: after the recovery delay, the
// lowest-ID alive dispatcher removes the dead matcher from the table and
// every dispatcher re-installs its registry (paper Section IV-E).
func (d *Dispatcher) onLiveness(id core.NodeID, alive bool) {
	if alive {
		return
	}
	d.mu.Lock()
	t := d.table
	stopping := d.stopping
	if !stopping {
		d.wg.Add(1) // under mu: Stop sets stopping before Wait
	}
	d.mu.Unlock()
	if stopping {
		return
	}
	if t == nil || !t.HasMatcher(id) {
		d.wg.Done()
		return
	}
	go func() {
		defer d.wg.Done()
		select {
		case <-d.stop:
			return
		case <-time.After(d.cfg.RecoveryDelay):
		}
		if d.gsp.Alive(id) {
			return // transient: it came back
		}
		if !d.isLeader() {
			return // another dispatcher owns table surgery
		}
		d.mu.Lock()
		t := d.table
		d.mu.Unlock()
		if t == nil || !t.HasMatcher(id) {
			return
		}
		newTab, _, err := t.Leave(id)
		if err != nil {
			return
		}
		d.SetTable(newTab)
	}()
}

// isLeader reports whether this dispatcher has the lowest ID among alive
// dispatchers (the recovery coordinator).
func (d *Dispatcher) isLeader() bool {
	for _, p := range d.gsp.Peers() {
		if p.Role == core.RoleDispatcher && p.Alive && p.ID < d.cfg.ID {
			return false
		}
	}
	return true
}

// reconcile re-installs every registered subscription under table t —
// placements on new or takeover matchers get their copies, including the
// Section III-A1 neighbor-replication ones. Store is idempotent on
// matchers.
func (d *Dispatcher) reconcile(t *partition.Table) {
	d.mu.Lock()
	entries := make([]regEntry, 0, len(d.registry))
	for _, e := range d.registry {
		entries = append(entries, e)
	}
	d.mu.Unlock()
	for _, e := range entries {
		d.installSub(t, e.sub, e.addr)
	}
}

// tableWatchLoop adopts fresher tables seen in gossip.
func (d *Dispatcher) tableWatchLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.GossipInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			raw, _, ok := d.gsp.HighestState(TableKey)
			if !ok {
				continue
			}
			t, err := partition.Decode(raw)
			if err != nil {
				continue
			}
			d.adoptIfNewer(t)
		}
	}
}

// tablePullLoop pulls the table from a random matcher periodically (the
// paper's 60·N-byte pull every 10 seconds), a safety net on top of gossip.
func (d *Dispatcher) tablePullLoop() {
	defer d.wg.Done()
	ticker := time.NewTicker(d.cfg.TablePullInterval)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			d.pullTable()
		}
	}
}

func (d *Dispatcher) pullTable() {
	var matchers []gossip.Peer
	for _, p := range d.gsp.Peers() {
		if p.Role == core.RoleMatcher && p.Alive {
			matchers = append(matchers, p)
		}
	}
	if len(matchers) == 0 {
		return
	}
	d.mu.Lock()
	target := matchers[d.rng.Intn(len(matchers))]
	d.mu.Unlock()
	resp, err := d.cfg.Transport.Request(target.Addr,
		&wire.Envelope{Kind: wire.KindTableRequest, From: d.cfg.ID}, 2*time.Second)
	if err != nil || resp.Kind != wire.KindTableResponse {
		return
	}
	d.PullBytes.Add(int64(len(resp.Body)))
	b, err := wire.DecodeTableResponse(resp.Body)
	if err != nil {
		return
	}
	t, err := partition.Decode(b.Table)
	if err != nil {
		return
	}
	d.adoptIfNewer(t)
}

// adoptIfNewer installs t when it supersedes the current view and
// reconciles the registry onto it.
func (d *Dispatcher) adoptIfNewer(t *partition.Table) {
	d.mu.Lock()
	if d.table != nil && t.Version() <= d.table.Version() {
		d.mu.Unlock()
		return
	}
	d.table = t
	d.mu.Unlock()
	d.reconcile(t)
}

// RegistrySize returns the number of subscriptions registered through this
// dispatcher.
func (d *Dispatcher) RegistrySize() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.registry)
}

// String renders a diagnostic label.
func (d *Dispatcher) String() string {
	return fmt.Sprintf("dispatcher{%v@%s}", d.cfg.ID, d.addr)
}
