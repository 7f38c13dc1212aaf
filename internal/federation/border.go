package federation

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/metrics"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// Config parameterizes one border node.
type Config struct {
	// ID is this border's node ID; required, unique across the whole local
	// cluster (borders share the dispatcher/matcher gossip ID space).
	// Locally injected remote publications carry ID<<40|seq message IDs, so
	// the delivery loop guard depends on this uniqueness.
	ID core.NodeID
	// Addr is the listen address for deliveries, gossip and peer-cluster
	// frames; peer clusters must be configured with the bound address.
	Addr string
	// Space is the cluster's attribute space; required.
	Space *core.Space
	// Transport carries all traffic; required.
	Transport transport.Transport
	// Seeds bootstrap membership in the local cluster's gossip overlay.
	Seeds []string
	// Cluster is this cluster's federation ID; required, nonzero, unique
	// across the federation (the loop guard and cross-cluster message
	// identity are keyed on it).
	Cluster uint64
	// Peers lists peer-cluster border addresses (the inter-cluster mesh).
	// More links can be added after start with SetPeers.
	Peers []string
	// SummaryInterval is the cadence of the matcher summary pull and
	// interest sync loop (default 1s).
	SummaryInterval time.Duration
	// AnnounceEvery sends a full SummaryAnnounce every n-th summary round
	// as anti-entropy for lost deltas (default 5).
	AnnounceEvery int
	// MaxRangesPerDim caps the cluster summary's interval count per
	// dimension; tighter caps mean smaller exchanges but more
	// false-positive forwarding (default 64).
	MaxRangesPerDim int
	// MaxHops bounds inter-cluster hops; 1 (the default) federates only
	// over direct links, >1 lets borders relay for partially connected
	// meshes.
	MaxHops int
	// RequestTimeout bounds every outbound request (default 5s).
	RequestTimeout time.Duration
	// RetryMax caps the backoff between FedPublish retries (default 2s).
	RetryMax time.Duration
	// MaxPending bounds each peer link's pending-forward queue and the
	// local injection queue. A full injection queue refuses (rather than
	// acks) incoming FedPublish frames so an acked publication is never
	// dropped (default 65536).
	MaxPending int
	// BreakerThreshold and BreakerCooldown parameterize the per-peer
	// circuit breaker (defaults 5 failures, 1s cooldown).
	BreakerThreshold int
	BreakerCooldown  time.Duration
	// DedupWindow is the size of the (origin, id) receive-dedup ring and
	// the local delivery dedup ring (default 8192).
	DedupWindow int
	// GossipInterval, FailAfter, Generation tune local-cluster membership.
	GossipInterval time.Duration
	FailAfter      time.Duration
	Generation     uint64
	// Seed drives retry jitter (default derived from ID).
	Seed int64
	// Telemetry, when set, registers federation.* series.
	Telemetry *telemetry.Telemetry
	// Now supplies the clock in nanoseconds (default time.Now).
	Now func() int64
}

func (c *Config) defaults() error {
	if c.ID == 0 || c.Space == nil || c.Transport == nil || c.Cluster == 0 {
		return errors.New("federation: ID, Space, Transport and Cluster are required")
	}
	if c.SummaryInterval <= 0 {
		c.SummaryInterval = time.Second
	}
	if c.AnnounceEvery <= 0 {
		c.AnnounceEvery = 5
	}
	if c.MaxRangesPerDim <= 0 {
		c.MaxRangesPerDim = 64
	}
	if c.MaxHops <= 0 {
		c.MaxHops = 1
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 5 * time.Second
	}
	if c.RetryMax <= 0 {
		c.RetryMax = 2 * time.Second
	}
	if c.MaxPending <= 0 {
		c.MaxPending = 65536
	}
	if c.BreakerCooldown <= 0 {
		c.BreakerCooldown = time.Second
	}
	if c.DedupWindow <= 0 {
		c.DedupWindow = 8192
	}
	if c.Seed == 0 {
		c.Seed = int64(c.ID)*0x9e3779b9 + int64(c.Cluster)
	}
	if c.Now == nil {
		c.Now = func() int64 { return time.Now().UnixNano() }
	}
	return nil
}

// fedKey is the cross-cluster identity of a publication: the origin cluster
// plus the message ID the origin cluster assigned. Local delivery dedup uses
// origin 0 with the local message ID.
type fedKey struct {
	origin uint64
	id     core.MessageID
}

// dedupRing is a bounded seen-set: at capacity the oldest key is forgotten.
type dedupRing struct {
	seen  map[fedKey]struct{}
	order []fedKey
	next  int
	cap   int
}

func newDedupRing(capacity int) *dedupRing {
	return &dedupRing{seen: make(map[fedKey]struct{}), cap: capacity}
}

// add records k and reports whether it was new.
func (r *dedupRing) add(k fedKey) bool {
	if _, ok := r.seen[k]; ok {
		return false
	}
	if len(r.order) < r.cap {
		r.order = append(r.order, k)
	} else {
		delete(r.seen, r.order[r.next])
		r.order[r.next] = k
		r.next = (r.next + 1) % r.cap
	}
	r.seen[k] = struct{}{}
	return true
}

// fedItem is one pending forward on a peer link.
type fedItem struct {
	origin uint64
	hops   uint8
	msg    *core.Message
}

// link is one peer-cluster border connection: the remote summary it last
// announced, the aggregated local subscription representing it, and the
// pending-forward queue drained by a dedicated worker.
type link struct {
	idx  int
	addr string
	// node keys the per-peer circuit breaker.
	node core.NodeID

	qmu    sync.Mutex
	cond   *sync.Cond
	queue  []*fedItem
	closed bool

	// subMu serializes interest-subscription updates for this link.
	subMu sync.Mutex

	// Guarded by Border.mu:
	cluster   uint64
	sum       *Summary
	subID     core.SubscriptionID
	subCuboid []core.Range

	// up mirrors the last send outcome (the peer_up telemetry gauge).
	up atomic.Bool
}

// Border is one border node: it joins the local cluster's gossip overlay as
// core.RoleBorder, keeps an aggregated interest subscription per peer
// cluster so remotely-interesting publications reach it through the normal
// match path, and exchanges summaries and publications with peer borders.
type Border struct {
	cfg  Config
	addr string
	gsp  *gossip.Gossiper
	brk  *forward.Breaker
	stop chan struct{}
	wg   sync.WaitGroup

	mu          sync.Mutex
	links       []*link
	local       *Summary
	matcherVer  map[core.NodeID]uint64
	matcherDims map[core.NodeID][][]core.Range
	borderIDs   map[core.NodeID]bool
	fwdSeen     *dedupRing
	recvSeen    *dedupRing
	round       uint64

	nextMsg atomic.Uint64

	imu     sync.Mutex
	icond   *sync.Cond
	injq    []*core.Message
	iclosed bool

	// Telemetry counters (federation.* series).
	FedPublished  metrics.Counter
	FedForwarded  metrics.Counter
	FedSuppressed metrics.Counter
	FedReceived   metrics.Counter
	FedInjected   metrics.Counter
	Duplicates    metrics.Counter
	LoopDropped   metrics.Counter
	Retries       metrics.Counter
	Malformed     metrics.Counter
	Rejected      metrics.Counter
}

// Start listens, joins the local gossip overlay and begins the summary and
// forwarding loops.
func Start(cfg Config) (*Border, error) {
	if err := cfg.defaults(); err != nil {
		return nil, err
	}
	b := &Border{
		cfg:         cfg,
		stop:        make(chan struct{}),
		matcherVer:  map[core.NodeID]uint64{},
		matcherDims: map[core.NodeID][][]core.Range{},
		borderIDs:   map[core.NodeID]bool{},
		fwdSeen:     newDedupRing(cfg.DedupWindow),
		recvSeen:    newDedupRing(cfg.DedupWindow),
	}
	b.icond = sync.NewCond(&b.imu)
	b.brk = forward.NewBreaker(cfg.BreakerThreshold, cfg.BreakerCooldown, cfg.Now)
	addr, err := cfg.Transport.Listen(cfg.Addr, b.handle)
	if err != nil {
		return nil, err
	}
	b.addr = addr
	g, err := gossip.New(gossip.Config{
		ID:         cfg.ID,
		Addr:       addr,
		Role:       core.RoleBorder,
		Transport:  cfg.Transport,
		Seeds:      cfg.Seeds,
		Interval:   cfg.GossipInterval,
		FailAfter:  cfg.FailAfter,
		Generation: cfg.Generation,
		Now:        cfg.Now,
	})
	if err != nil {
		return nil, err
	}
	b.mu.Lock()
	b.gsp = g
	b.mu.Unlock()
	g.Start()
	b.registerTelemetry()
	for _, p := range cfg.Peers {
		b.addLink(p)
	}
	b.wg.Add(2)
	go b.summaryLoop()
	go b.injectLoop()
	return b, nil
}

// Stop shuts the border down. Pending forwards and injections not yet acked
// are dropped with the process — pending-forward durability spans link
// faults, not border restarts (see DESIGN.md).
func (b *Border) Stop() {
	b.mu.Lock()
	select {
	case <-b.stop:
		b.mu.Unlock()
		return
	default:
		close(b.stop)
	}
	links := append([]*link(nil), b.links...)
	b.mu.Unlock()
	for _, l := range links {
		l.qmu.Lock()
		l.closed = true
		l.cond.Broadcast()
		l.qmu.Unlock()
	}
	b.imu.Lock()
	b.iclosed = true
	b.icond.Broadcast()
	b.imu.Unlock()
	b.gsp.Stop()
	b.wg.Wait()
}

// Addr returns the bound listen address.
func (b *Border) Addr() string { return b.addr }

// SetPeers adds links for any peer addresses not yet known. Existing links
// are kept; federation meshes only grow at runtime.
func (b *Border) SetPeers(addrs []string) {
	for _, a := range addrs {
		b.addLink(a)
	}
}

// LocalSummary returns a clone of the current cluster summary (nil before
// the first refresh).
func (b *Border) LocalSummary() *Summary {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.local.Clone()
}

// RemoteSummary returns a clone of the last summary announced by the peer
// at addr (nil while unknown).
func (b *Border) RemoteSummary(addr string) *Summary {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.links {
		if l.addr == addr {
			return l.sum.Clone()
		}
	}
	return nil
}

// PendingTotal counts queued-but-unacked forwards across all links plus
// accepted-but-uninjected remote publications.
func (b *Border) PendingTotal() int {
	b.mu.Lock()
	links := append([]*link(nil), b.links...)
	b.mu.Unlock()
	n := 0
	for _, l := range links {
		l.qmu.Lock()
		n += len(l.queue)
		l.qmu.Unlock()
	}
	b.imu.Lock()
	n += len(b.injq)
	b.imu.Unlock()
	return n
}

func (b *Border) addLink(addr string) {
	if addr == "" || addr == b.addr {
		return
	}
	b.mu.Lock()
	for _, l := range b.links {
		if l.addr == addr {
			b.mu.Unlock()
			return
		}
	}
	l := &link{idx: len(b.links), addr: addr}
	l.node = core.NodeID(l.idx + 1)
	l.cond = sync.NewCond(&l.qmu)
	b.links = append(b.links, l)
	b.mu.Unlock()
	if b.cfg.Telemetry != nil {
		r := b.cfg.Telemetry.Registry
		peer := telemetry.L("peer", l.addr)
		r.Gauge("federation.peer_up", "1 when the last send on this peer link succeeded",
			func(int64) float64 {
				if l.up.Load() {
					return 1
				}
				return 0
			}, peer)
		r.Gauge("federation.peer_pending", "forwards queued for this peer and not yet acked",
			func(int64) float64 {
				l.qmu.Lock()
				defer l.qmu.Unlock()
				return float64(len(l.queue))
			}, peer)
		r.Gauge("federation.peer_breaker_open", "per-peer circuit state: 0 closed, 0.5 half-open, 1 open",
			func(int64) float64 {
				switch b.brk.State(l.node) {
				case "open":
					return 1
				case "half-open":
					return 0.5
				}
				return 0
			}, peer)
	}
	b.wg.Add(1)
	go b.linkLoop(l)
}

func (b *Border) registerTelemetry() {
	if b.cfg.Telemetry == nil {
		return
	}
	r := b.cfg.Telemetry.Registry
	r.Gauge("node.info", "constant 1; labels identify the node", func(int64) float64 { return 1 })
	r.Counter("federation.fed_published", "local publications that reached the border for federation", &b.FedPublished)
	r.Counter("federation.fed_forwarded", "FedPublish frames acked by peer clusters", &b.FedForwarded)
	r.Counter("federation.fed_suppressed", "per-peer forwards suppressed because the peer summary does not match", &b.FedSuppressed)
	r.Counter("federation.fed_received", "FedPublish frames received from peer clusters", &b.FedReceived)
	r.Counter("federation.fed_injected", "remote publications injected into the local cluster", &b.FedInjected)
	r.Counter("federation.duplicates", "cross-cluster duplicates dropped by the (origin, id) window", &b.Duplicates)
	r.Counter("federation.loop_dropped", "frames dropped by the origin-cluster/hop-count loop guard", &b.LoopDropped)
	r.Counter("federation.retries", "FedPublish send attempts that failed and were retried", &b.Retries)
	r.Counter("federation.malformed", "malformed or hostile federation frames dropped", &b.Malformed)
	r.Counter("federation.rejected", "forwards dropped at a full pending queue", &b.Rejected)
	r.Counter("federation.breaker_tripped", "per-peer circuit breaker closed-to-open transitions", &b.brk.Tripped)
	r.Counter("gossip.bytes", "gossip payload traffic", &b.gsp.Bytes)
	r.Gauge("federation.summary_size", "intervals in the local cluster summary across dimensions", func(int64) float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return float64(b.local.Size())
	})
	r.Gauge("federation.summary_version", "local cluster summary version", func(int64) float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		if b.local == nil {
			return 0
		}
		return float64(b.local.Version)
	})
	r.Gauge("federation.pending", "pending forwards plus accepted-but-uninjected remote publications", func(int64) float64 {
		return float64(b.PendingTotal())
	})
	r.Gauge("federation.peers", "configured peer links", func(int64) float64 {
		b.mu.Lock()
		defer b.mu.Unlock()
		return float64(len(b.links))
	})
	tr := b.cfg.Telemetry.Tracer
	r.Gauge("trace.completed", "traces recorded on this node", func(int64) float64 {
		return float64(tr.Total())
	})
}

// ---- transport handler ----

func (b *Border) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindGossip:
		if g := b.gossiper(); g != nil {
			return g.HandleGossip(env)
		}
		return nil
	case wire.KindDeliverBatch:
		if db, err := wire.DecodeDeliverBatch(env.Body); err == nil {
			for i := range db.Deliveries {
				b.fanOut(db.Deliveries[i].Msg)
			}
		} else {
			b.Malformed.Add(1)
		}
		return nil
	case wire.KindSummaryAnnounce:
		b.onAnnounce(env)
		return nil
	case wire.KindSummaryDelta:
		b.onDelta(env)
		return nil
	case wire.KindFedPublish:
		return b.onFedPublish(env)
	}
	return nil
}

func (b *Border) gossiper() *gossip.Gossiper {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.gsp
}

// ---- outbound: local deliveries fan out to matching peer clusters ----

// fanOut routes one locally-delivered publication toward every peer cluster
// whose summary matches it. Deliveries reach the border through the
// aggregated per-peer cuboid subscriptions, so a cuboid hit whose full
// summary misses is exactly the suppression the interval lists buy over
// plain bounding boxes.
func (b *Border) fanOut(msg *core.Message) {
	if msg == nil {
		return
	}
	if b.isLocalBorderID(msg.ID) {
		// A publication this cluster's border tier injected on behalf of a
		// remote cluster: matching it back to the border is the loop the
		// guard exists to break.
		b.LoopDropped.Add(1)
		return
	}
	b.mu.Lock()
	if !b.fwdSeen.add(fedKey{0, msg.ID}) {
		// Same publication delivered again (overlapping per-peer cuboids or
		// a matcher retransmit): the first arrival already evaluated every
		// peer.
		b.mu.Unlock()
		return
	}
	links := append([]*link(nil), b.links...)
	sums := make([]*Summary, len(links))
	for i, l := range links {
		sums[i] = l.sum
	}
	b.mu.Unlock()
	b.FedPublished.Add(1)
	var fwd *core.Message
	for i, l := range links {
		if sums[i] == nil {
			continue
		}
		if !sums[i].Matches(msg.Attrs) {
			b.FedSuppressed.Add(1)
			continue
		}
		if fwd == nil {
			fwd = b.fedClone(msg)
			if fwd.Trace != nil && b.cfg.Telemetry != nil {
				b.cfg.Telemetry.Tracer.Record(msg.ID, fwd.Trace)
			}
		}
		b.enqueue(l, &fedItem{origin: b.cfg.Cluster, hops: 1, msg: fwd})
	}
}

// fedClone prepares the cross-cluster copy of a publication: the upstream
// hops (publish, ingest, forward) are kept so the remote timeline starts at
// the true publish instant, the downstream hops are cleared so the remote
// cluster's stamp-if-unset fills them with its own dequeue/match/deliver
// times, and the federate hop marks the cluster boundary.
func (b *Border) fedClone(msg *core.Message) *core.Message {
	c := msg.Clone()
	if c.Trace != nil {
		t := &core.TraceCtx{ID: c.Trace.ID, Dispatcher: c.Trace.Dispatcher}
		t.Hops[core.HopPublish] = c.Trace.Hops[core.HopPublish]
		t.Hops[core.HopIngest] = c.Trace.Hops[core.HopIngest]
		t.Hops[core.HopForward] = c.Trace.Hops[core.HopForward]
		t.Stamp(core.HopFederate, b.cfg.Now())
		c.Trace = t
	}
	return c
}

// isLocalBorderID reports whether the message ID was assigned by this
// cluster's border tier (IDs carry the assigning node in the top bits).
// Border IDs seen via gossip are remembered stickily so a border's in-flight
// injections keep being recognized briefly past its death.
func (b *Border) isLocalBorderID(id core.MessageID) bool {
	nid := core.NodeID(uint64(id) >> 40)
	if nid == b.cfg.ID {
		return true
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.borderIDs[nid]
}

func (b *Border) enqueue(l *link, it *fedItem) {
	l.qmu.Lock()
	defer l.qmu.Unlock()
	if l.closed {
		return
	}
	if len(l.queue) >= b.cfg.MaxPending {
		b.Rejected.Add(1)
		return
	}
	l.queue = append(l.queue, it)
	l.cond.Signal()
}

// linkLoop drains one peer link's pending queue. The head is retried with
// capped jittered backoff until the peer acks it; the per-peer breaker stops
// hammering a dead link while the queue retains everything.
func (b *Border) linkLoop(l *link) {
	defer b.wg.Done()
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ (int64(l.idx+1) * 0x9e3779b9)))
	attempt := 0
	for {
		l.qmu.Lock()
		for len(l.queue) == 0 && !l.closed {
			l.cond.Wait()
		}
		if l.closed {
			l.qmu.Unlock()
			return
		}
		it := l.queue[0]
		l.qmu.Unlock()
		if !b.brk.Routable(l.node) {
			if b.sleepFor(b.cfg.BreakerCooldown / 2) {
				return
			}
			continue
		}
		body := (&wire.FedPublishBody{Origin: it.origin, Sender: b.cfg.Cluster, Hops: it.hops, Msg: it.msg}).Encode()
		resp, err := b.cfg.Transport.Request(l.addr,
			&wire.Envelope{Kind: wire.KindFedPublish, From: b.cfg.ID, Body: body}, b.cfg.RequestTimeout)
		if err == nil && resp != nil && resp.Kind == wire.KindFedAck {
			b.brk.Success(l.node)
			l.up.Store(true)
			attempt = 0
			b.FedForwarded.Add(1)
			l.qmu.Lock()
			if len(l.queue) > 0 && l.queue[0] == it {
				l.queue = l.queue[1:]
			}
			l.qmu.Unlock()
			continue
		}
		b.brk.Failure(l.node)
		l.up.Store(false)
		b.Retries.Add(1)
		attempt++
		d := time.Duration(1<<min(attempt, 8)) * 5 * time.Millisecond
		if d > b.cfg.RetryMax {
			d = b.cfg.RetryMax
		}
		if b.sleepFor(time.Millisecond + time.Duration(rng.Int63n(int64(d)))) {
			return
		}
	}
}

func (b *Border) sleepFor(d time.Duration) (stopped bool) {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-b.stop:
		return true
	case <-t.C:
		return false
	}
}

// ---- inbound: FedPublish from peer clusters ----

func (b *Border) onFedPublish(env *wire.Envelope) *wire.Envelope {
	fp, err := wire.DecodeFedPublish(env.Body)
	if err != nil || fp.Msg == nil {
		b.Malformed.Add(1)
		return b.errEnv(fmt.Errorf("federation: bad fed-publish: %v", err))
	}
	b.FedReceived.Add(1)
	ack := func(dup bool) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindFedAck, From: b.cfg.ID,
			Body: (&wire.FedAckBody{Origin: fp.Origin, ID: fp.Msg.ID, Dup: dup}).Encode()}
	}
	// Loop guards: our own cluster's publication coming back, or a frame
	// that already used up its hop budget. Both are acked — the sender must
	// settle its pending entry; the frame is just not propagated.
	if fp.Origin == b.cfg.Cluster || int(fp.Hops) > b.cfg.MaxHops {
		b.LoopDropped.Add(1)
		return ack(false)
	}
	if err := fp.Msg.Validate(b.cfg.Space); err != nil {
		// A poison frame must not wedge the sender's queue: ack it away.
		b.Malformed.Add(1)
		return ack(false)
	}
	// Refuse (no ack) while the injection queue is full so responsibility
	// stays with the sender; acked publications are never dropped.
	b.imu.Lock()
	full := b.iclosed || len(b.injq) >= b.cfg.MaxPending
	b.imu.Unlock()
	if full {
		b.Rejected.Add(1)
		return b.errEnv(errors.New("federation: injection queue full"))
	}
	b.mu.Lock()
	fresh := b.recvSeen.add(fedKey{fp.Origin, fp.Msg.ID})
	b.mu.Unlock()
	if !fresh {
		b.Duplicates.Add(1)
		return ack(true)
	}
	b.relay(fp)
	inj := fp.Msg.Clone()
	inj.ID = core.MessageID(uint64(b.cfg.ID)<<40 | (b.nextMsg.Add(1) & ((1 << 40) - 1)))
	inj.PublishedAt = 0
	b.imu.Lock()
	if !b.iclosed {
		b.injq = append(b.injq, inj)
		b.icond.Signal()
	}
	b.imu.Unlock()
	return ack(false)
}

// relay forwards an accepted remote publication onward when the hop budget
// allows (MaxHops > 1, partially connected meshes). The origin cluster and
// the sending cluster are skipped; the hop count increments.
func (b *Border) relay(fp *wire.FedPublishBody) {
	if int(fp.Hops) >= b.cfg.MaxHops {
		return
	}
	b.mu.Lock()
	links := append([]*link(nil), b.links...)
	sums := make([]*Summary, len(links))
	clusters := make([]uint64, len(links))
	for i, l := range links {
		sums[i] = l.sum
		clusters[i] = l.cluster
	}
	b.mu.Unlock()
	for i, l := range links {
		if sums[i] == nil || clusters[i] == fp.Origin || clusters[i] == fp.Sender {
			continue
		}
		if !sums[i].Matches(fp.Msg.Attrs) {
			b.FedSuppressed.Add(1)
			continue
		}
		b.enqueue(l, &fedItem{origin: fp.Origin, hops: fp.Hops + 1, msg: fp.Msg})
	}
}

// injectLoop publishes accepted remote publications into the local cluster
// through a live dispatcher, retrying until one admits each.
func (b *Border) injectLoop() {
	defer b.wg.Done()
	rng := rand.New(rand.NewSource(b.cfg.Seed ^ 0x5bd1e995))
	for {
		b.imu.Lock()
		for len(b.injq) == 0 && !b.iclosed {
			b.icond.Wait()
		}
		if b.iclosed {
			b.imu.Unlock()
			return
		}
		msg := b.injq[0]
		b.imu.Unlock()
		if b.injectOnce(msg) {
			b.FedInjected.Add(1)
			b.imu.Lock()
			if len(b.injq) > 0 && b.injq[0] == msg {
				b.injq = b.injq[1:]
			}
			b.imu.Unlock()
			continue
		}
		if b.sleepFor(20*time.Millisecond + time.Duration(rng.Int63n(int64(30*time.Millisecond)))) {
			return
		}
	}
}

func (b *Border) injectOnce(msg *core.Message) bool {
	for _, addr := range b.dispatcherAddrs() {
		resp, err := b.cfg.Transport.Request(addr,
			&wire.Envelope{Kind: wire.KindPublishReq, From: b.cfg.ID,
				Body: (&wire.PublishBody{Msg: msg}).Encode()}, b.cfg.RequestTimeout)
		if err == nil && resp != nil && resp.Kind == wire.KindPublishAck {
			return true
		}
	}
	return false
}

// dispatcherAddrs lists live local dispatchers, lowest ID first.
func (b *Border) dispatcherAddrs() []string {
	g := b.gossiper()
	if g == nil {
		return nil
	}
	peers := g.Peers()
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	var out []string
	for _, p := range peers {
		if p.Role == core.RoleDispatcher && p.Alive {
			out = append(out, p.Addr)
		}
	}
	return out
}

// ---- summary exchange ----

func (b *Border) summaryLoop() {
	defer b.wg.Done()
	t := time.NewTicker(b.cfg.SummaryInterval)
	defer t.Stop()
	for {
		select {
		case <-b.stop:
			return
		case <-t.C:
			b.refreshBorderIDs()
			b.refreshSummary()
			b.syncInterests()
		}
	}
}

// refreshBorderIDs accumulates every border node ID seen in the local
// overlay (sticky: a dead border's in-flight injections must still be
// recognized by the delivery loop guard).
func (b *Border) refreshBorderIDs() {
	g := b.gossiper()
	if g == nil {
		return
	}
	for _, p := range g.Peers() {
		if p.Role == core.RoleBorder {
			b.mu.Lock()
			b.borderIDs[p.ID] = true
			b.mu.Unlock()
		}
	}
}

// refreshSummary pulls every live matcher's interest summary (version-gated
// so unchanged matchers answer cheaply), merges the tables into the cluster
// summary, and pushes the change to peers: a delta when the peers track our
// previous version, a full announce on the anti-entropy cadence.
func (b *Border) refreshSummary() {
	g := b.gossiper()
	if g == nil {
		return
	}
	peers := g.Peers()
	sort.Slice(peers, func(i, j int) bool { return peers[i].ID < peers[j].ID })
	live := map[core.NodeID]bool{}
	changed := false
	for _, p := range peers {
		if p.Role != core.RoleMatcher || !p.Alive {
			continue
		}
		live[p.ID] = true
		b.mu.Lock()
		ver := b.matcherVer[p.ID]
		b.mu.Unlock()
		resp, err := b.cfg.Transport.Request(p.Addr,
			&wire.Envelope{Kind: wire.KindSummaryRequest, From: b.cfg.ID,
				Body: (&wire.SummaryRequestBody{IfVersion: ver}).Encode()}, b.cfg.RequestTimeout)
		if err != nil || resp == nil || resp.Kind != wire.KindSummaryResponse {
			continue
		}
		sr, err := wire.DecodeSummaryResponse(resp.Body)
		if err != nil {
			continue
		}
		b.mu.Lock()
		if !sr.Unchanged {
			b.matcherDims[p.ID] = sr.Dims
			changed = true
		}
		b.matcherVer[p.ID] = sr.Version
		b.mu.Unlock()
	}
	b.mu.Lock()
	for id := range b.matcherDims {
		if !live[id] {
			delete(b.matcherDims, id)
			delete(b.matcherVer, id)
			changed = true
		}
	}
	round := b.round
	b.round++
	prev := b.local
	announceDue := round%uint64(b.cfg.AnnounceEvery) == 0
	if !changed && prev != nil && !announceDue {
		b.mu.Unlock()
		return
	}
	ids := make([]core.NodeID, 0, len(b.matcherDims))
	for id := range b.matcherDims {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	tables := make([][][]core.Range, 0, len(ids))
	for _, id := range ids {
		tables = append(tables, b.matcherDims[id])
	}
	b.mu.Unlock()
	merged := MergeInto(b.cfg.Space.K(), tables, b.cfg.MaxRangesPerDim)
	var delta *wire.SummaryDeltaBody
	b.mu.Lock()
	if prev == nil || !merged.Equal(prev) {
		if prev == nil {
			merged.Version = 1
		} else {
			merged.Version = prev.Version + 1
		}
		b.local = merged
		delta = merged.DeltaFrom(prev, b.cfg.Cluster)
	}
	cur := b.local.Clone()
	links := append([]*link(nil), b.links...)
	b.mu.Unlock()
	if cur == nil {
		return
	}
	if announceDue || prev == nil {
		body := (&wire.SummaryAnnounceBody{Cluster: b.cfg.Cluster, Version: cur.Version,
			Addr: b.addr, Dims: cur.Dims}).Encode()
		for _, l := range links {
			_ = b.cfg.Transport.Send(l.addr, &wire.Envelope{Kind: wire.KindSummaryAnnounce, From: b.cfg.ID, Body: body})
		}
	} else if delta != nil {
		delta.Addr = b.addr
		body := delta.Encode()
		for _, l := range links {
			_ = b.cfg.Transport.Send(l.addr, &wire.Envelope{Kind: wire.KindSummaryDelta, From: b.cfg.ID, Body: body})
		}
	}
}

func (b *Border) linkByAddr(addr string) *link {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, l := range b.links {
		if l.addr == addr {
			return l
		}
	}
	return nil
}

func (b *Border) onAnnounce(env *wire.Envelope) {
	a, err := wire.DecodeSummaryAnnounce(env.Body)
	if err != nil {
		b.Malformed.Add(1)
		return
	}
	if len(a.Dims) != b.cfg.Space.K() || a.Cluster == 0 {
		b.Malformed.Add(1)
		return
	}
	l := b.linkByAddr(a.Addr)
	if l == nil {
		// Not a configured peer: summaries only bind to explicit links.
		b.Malformed.Add(1)
		return
	}
	ns := &Summary{Version: a.Version, Dims: a.Dims}
	b.mu.Lock()
	l.cluster = a.Cluster
	changed := l.sum == nil || l.sum.Version != ns.Version || !l.sum.Equal(ns)
	if changed {
		l.sum = ns
	}
	b.mu.Unlock()
	if changed {
		b.syncInterest(l)
	}
}

func (b *Border) onDelta(env *wire.Envelope) {
	d, err := wire.DecodeSummaryDelta(env.Body)
	if err != nil {
		b.Malformed.Add(1)
		return
	}
	l := b.linkByAddr(d.Addr)
	if l == nil {
		b.Malformed.Add(1)
		return
	}
	b.mu.Lock()
	var next *Summary
	if l.sum != nil && l.sum.Version == d.FromVersion {
		next = l.sum.ApplyDelta(d)
	}
	// A version mismatch or bad delta leaves the old summary in place —
	// still sound (old interest over-approximates until the next announce
	// repairs it) as long as the origin keeps announcing periodically.
	if next != nil {
		l.cluster = d.Cluster
		l.sum = next
	}
	b.mu.Unlock()
	if next != nil {
		b.syncInterest(l)
	}
}

// ---- per-peer aggregated interest subscription ----

func (b *Border) syncInterests() {
	b.mu.Lock()
	links := append([]*link(nil), b.links...)
	b.mu.Unlock()
	for _, l := range links {
		b.syncInterest(l)
	}
}

// syncInterest makes the local cluster deliver what the peer currently
// wants: one subscription on the peer summary's bounding cuboid, owned by a
// federation-tagged subscriber so matchers exclude it from the local
// summary. The new subscription registers before the old one is dropped, so
// interest widening never opens a delivery gap; the overlap's duplicate
// deliveries collapse in fanOut's dedup ring.
func (b *Border) syncInterest(l *link) {
	l.subMu.Lock()
	defer l.subMu.Unlock()
	b.mu.Lock()
	var want []core.Range
	if l.sum != nil {
		want = l.sum.BoundingCuboid()
	}
	have := l.subCuboid
	haveID := l.subID
	b.mu.Unlock()
	if core.RangesEqual(want, have) && (len(want) > 0) == (haveID != 0) {
		return
	}
	var newID core.SubscriptionID
	if len(want) > 0 {
		sub := core.NewSubscription(
			core.FederationSubscriber(core.SubscriberID(uint64(b.cfg.ID)<<16|uint64(l.idx+1))), want)
		body := (&wire.SubscribeBody{Sub: sub, DeliverAddr: b.addr}).Encode()
		ok := false
		for _, addr := range b.dispatcherAddrs() {
			resp, err := b.cfg.Transport.Request(addr,
				&wire.Envelope{Kind: wire.KindSubscribe, From: b.cfg.ID, Body: body}, b.cfg.RequestTimeout)
			if err != nil || resp == nil || resp.Kind != wire.KindSubscribeAck {
				continue
			}
			if ack, err := wire.DecodeSubscribeAck(resp.Body); err == nil {
				newID = ack.ID
				ok = true
				break
			}
		}
		if !ok {
			// No dispatcher admitted the subscription; keep the old
			// interest (over- or under-stated is repaired next round).
			return
		}
	}
	b.mu.Lock()
	oldID := l.subID
	l.subID = newID
	l.subCuboid = want
	b.mu.Unlock()
	if oldID != 0 {
		body := (&wire.UnsubscribeBody{ID: oldID}).Encode()
		for _, addr := range b.dispatcherAddrs() {
			if b.cfg.Transport.Send(addr, &wire.Envelope{Kind: wire.KindUnsubscribe, From: b.cfg.ID, Body: body}) == nil {
				break
			}
		}
	}
}

func (b *Border) errEnv(err error) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindError, From: b.cfg.ID,
		Body: (&wire.ErrorBody{Text: err.Error()}).Encode()}
}
