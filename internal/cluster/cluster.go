// Package cluster assembles complete BlueDove deployments: N matchers and D
// dispatchers wired over an in-process mesh (tests, examples) or real TCP
// (production, the cmd/ binaries), bootstrapped with a uniform mPartition
// table, with elasticity (joining matchers via the paper's dispatcher-driven
// split protocol) and failure injection.
package cluster

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/client"
	"bluedove/internal/core"
	"bluedove/internal/dispatcher"
	"bluedove/internal/edge"
	"bluedove/internal/elastic"
	"bluedove/internal/federation"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/matcher"
	"bluedove/internal/metrics"
	"bluedove/internal/partition"
	"bluedove/internal/placement"
	"bluedove/internal/store"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// Options configures a cluster.
type Options struct {
	// Space is the attribute space; required.
	Space *core.Space
	// Matchers is the initial matcher count (default 4).
	Matchers int
	// Dispatchers is the dispatcher count (default 2, as in the paper).
	Dispatchers int
	// Strategy is the placement strategy (default placement.BlueDove{}).
	Strategy placement.Strategy
	// Policy is the forwarding policy (default forward.Adaptive{}).
	Policy forward.Policy
	// TCP selects real TCP on loopback instead of the in-process mesh.
	TCP bool
	// GossipInterval, FailAfter, ReportInterval, RecoveryDelay, PruneGrace
	// tune the control loops; defaults follow the paper (1s, 10s, 1s, 5s,
	// 3s). Tests shrink them.
	GossipInterval time.Duration
	FailAfter      time.Duration
	ReportInterval time.Duration
	RecoveryDelay  time.Duration
	PruneGrace     time.Duration
	// Persistent enables at-least-once forwarding: dispatchers retain each
	// publication until a matcher acks it, so crashes lose no accepted
	// messages (paper Section VI future work; duplicates possible). Direct
	// clients created through NewClient get a duplicate-suppression window
	// so redeliveries never reach the application twice.
	Persistent bool
	// DataDir, when set, makes every node durable: each matcher and
	// dispatcher journals its state to a write-ahead log under
	// DataDir/<node-label>/ and recovers it on restart (RestartMatcher,
	// RestartDispatcher). Empty keeps all state in memory — the pre-durable
	// behavior, with zero filesystem traffic.
	DataDir string
	// Fsync is the journal durability policy when DataDir is set (default
	// store.FsyncAlways: every append reaches the disk before it is acked).
	Fsync store.Fsync
	// FailPolicy is every durable node's response to an unrecoverable
	// journal fault (default store.FailStop: the store fails, the cluster
	// crashes the node, and the existing crash-recovery path takes over).
	// store.DegradeToMemory keeps nodes serving non-durably with exact loss
	// accounting; store.Shed makes dispatchers refuse new persistent work
	// with an overloaded-style rejection. Ignored when DataDir is empty.
	FailPolicy store.FailPolicy
	// RetryInterval is the persistence retransmit timeout (default 2s).
	RetryInterval time.Duration
	// ForwardLinger, when positive, enables publication batching on every
	// dispatcher's forward path (see dispatcher.Config.ForwardLinger). Zero
	// keeps the unbatched message-per-frame behavior.
	ForwardLinger time.Duration
	// ForwardBatchCount tunes the batch flush threshold (default 64
	// messages; meaningful only with ForwardLinger > 0).
	ForwardBatchCount int
	// MatcherQueueDepth bounds each matcher's per-dimension stage queue
	// (matcher.Config.QueueDepth). Forwards arriving at a full stage are
	// rejected with a busy NACK; 0 keeps the matcher's default depth.
	MatcherQueueDepth int
	// RetryBudget, RerouteBackoff, BreakerThreshold, AdmissionLimit and
	// MessageTTL pass through to every dispatcher's overload-control layer
	// (see dispatcher.Config); zeros keep the dispatcher defaults
	// (re-routing and circuit breaking ON; negative
	// RetryBudget/BreakerThreshold disable them).
	RetryBudget      int
	RerouteBackoff   time.Duration
	BreakerThreshold int
	AdmissionLimit   int
	MessageTTL       time.Duration
	// TCPFlushInterval, when positive on a TCP cluster, enables transport
	// write coalescing on every node; only its sign matters, since the
	// flusher writes as soon as it is free (see transport.TCP.FlushInterval).
	TCPFlushInterval time.Duration
	// Chaos, when non-nil, wraps every node's transport in the
	// fault-injection controller: scheduled drops, delays, duplicates,
	// partitions and kills apply to all cluster traffic, keyed by node
	// address (mesh labels like "matcher-1", or the bound TCP address).
	Chaos *chaos.Controller
	// Telemetry enables the observability subsystem on every node: a
	// metrics registry labeled with the node's identity and a hop-level
	// tracer. Implied by TraceSampleRate > 0 or Admin.
	Telemetry bool
	// TraceSampleRate is the fraction of publications traced end to end
	// (0 disables tracing; 1 traces everything).
	TraceSampleRate float64
	// Admin serves each node's admin endpoint (Prometheus /metrics, JSON
	// /debug/vars, /debug/traces, pprof) on a loopback port; see
	// Cluster.AdminAddrs.
	Admin bool
	// Elastic embeds the elasticity controller: a loop that scrapes every
	// matcher's telemetry each ElasticInterval and autoscales the cluster —
	// scale-up via the join protocol, scale-down via the leave protocol,
	// hot-segment splits under skew (see internal/elastic).
	Elastic bool
	// ElasticConfig tunes the controller's watermarks and hysteresis (zero
	// values take the elastic package defaults).
	ElasticConfig elastic.Config
	// ElasticInterval is the scrape/decision cadence (default 1s).
	ElasticInterval time.Duration
	// DrainGrace is how long a removed matcher keeps serving stale-routed
	// traffic before stopping (default PruneGrace).
	DrainGrace time.Duration
	// Edges is the number of edge servers to start (default 0). Each edge
	// multiplexes many lightweight subscriber sessions behind one
	// aggregated upstream subscriber registered with dispatcher 0 (see
	// internal/edge); connect sessions with NewEdgeSession.
	Edges int
	// EdgePolicy is every edge's slow-consumer policy (default
	// backpressure).
	EdgePolicy edge.Policy
	// EdgeBufferBytes bounds each session's send buffer and unacked flight
	// window (0 = edge default, 256 KiB).
	EdgeBufferBytes int
	// ResumeWindow bounds each session's resume replay ring, in deliveries
	// (0 = edge default, 1024).
	ResumeWindow int
	// Federation starts the border tier: one border node that joins the
	// local overlay as core.RoleBorder, summarize the cluster's interest and
	// route publications to/from the peer clusters in FedPeers (see
	// internal/federation).
	Federation bool
	// ClusterID is this cluster's federation identity; required nonzero when
	// Federation is set and unique across the federation (default 1).
	ClusterID uint64
	// FedPeers lists peer-cluster border addresses. Multi-cluster test
	// topologies usually leave this empty and wire the full mesh after start
	// with Border.SetPeers (see StartFederated).
	FedPeers []string
	// FedSummaryInterval is the border summary pull/exchange cadence
	// (default 1s; tests shrink it).
	FedSummaryInterval time.Duration
	// LabelPrefix namespaces every node label (mesh address) of this
	// cluster, so several clusters can share one in-process mesh — the
	// inter-cluster topology StartFederated builds.
	LabelPrefix string
	// Mesh, when set on a non-TCP cluster, uses the given shared mesh
	// instead of creating one; the caller owns its lifecycle.
	Mesh *transport.Mesh
}

// telemetryOn reports whether nodes get a telemetry bundle.
func (o *Options) telemetryOn() bool {
	return o.Telemetry || o.TraceSampleRate > 0 || o.Admin
}

// clampInterval normalizes one control-loop cadence: negative values mean
// "unset" (the default applies), and positive values below a millisecond are
// raised to one — a sub-millisecond ticker busy-spins the control loop (and
// a value rounded to zero panics time.NewTicker outright).
func clampInterval(d *time.Duration) {
	if *d < 0 {
		*d = 0
	} else if *d > 0 && *d < time.Millisecond {
		*d = time.Millisecond
	}
}

// Validate checks required fields and clamps pathological knob values in
// place so they cannot reach a node constructor: negative counts, sizes and
// durations fall back to their documented defaults, and sub-millisecond
// control intervals are raised to 1ms. defaults() runs it on every Start;
// callers may invoke it directly to pre-flight a configuration.
func (o *Options) Validate() error {
	if o.Space == nil {
		return errors.New("cluster: Space is required")
	}
	for _, d := range []*time.Duration{
		&o.GossipInterval, &o.FailAfter, &o.ReportInterval, &o.RecoveryDelay,
		&o.PruneGrace, &o.RetryInterval, &o.ElasticInterval, &o.DrainGrace,
		&o.FedSummaryInterval,
	} {
		clampInterval(d)
	}
	// Optional durations where zero means "default/disabled": a negative
	// value must not arm a negative timer downstream.
	for _, d := range []*time.Duration{
		&o.RerouteBackoff, &o.MessageTTL, &o.ForwardLinger, &o.TCPFlushInterval,
	} {
		if *d < 0 {
			*d = 0
		}
	}
	// Counts and buffer sizes where zero selects the node default. Knobs
	// with meaningful negative values (RetryBudget, BreakerThreshold:
	// negative disables the feature) are deliberately left alone.
	for _, n := range []*int{
		&o.MatcherQueueDepth,
		&o.ForwardBatchCount, &o.AdmissionLimit, &o.EdgeBufferBytes,
		&o.ResumeWindow, &o.Edges,
	} {
		if *n < 0 {
			*n = 0
		}
	}
	return nil
}

func (o *Options) defaults() error {
	if err := o.Validate(); err != nil {
		return err
	}
	if o.Matchers <= 0 {
		o.Matchers = 4
	}
	if o.Dispatchers <= 0 {
		o.Dispatchers = 2
	}
	if o.Strategy == nil {
		o.Strategy = placement.BlueDove{}
	}
	if o.Policy == nil {
		o.Policy = forward.Adaptive{}
	}
	if o.GossipInterval <= 0 {
		o.GossipInterval = time.Second
	}
	if o.FailAfter <= 0 {
		o.FailAfter = 10 * time.Second
	}
	if o.ReportInterval <= 0 {
		o.ReportInterval = time.Second
	}
	if o.RecoveryDelay <= 0 {
		o.RecoveryDelay = 5 * time.Second
	}
	if o.PruneGrace <= 0 {
		o.PruneGrace = 3 * time.Second
	}
	if o.ElasticInterval <= 0 {
		o.ElasticInterval = time.Second
	}
	if o.DrainGrace <= 0 {
		o.DrainGrace = o.PruneGrace
	}
	if o.Federation && o.ClusterID == 0 {
		o.ClusterID = 1
	}
	return nil
}

// label namespaces a node label with the cluster's prefix (shared-mesh
// multi-cluster topologies; empty prefix keeps the historical labels).
func (c *Cluster) label(format string, args ...any) string {
	return c.opts.LabelPrefix + fmt.Sprintf(format, args...)
}

// Cluster is a running deployment.
type Cluster struct {
	opts      Options
	mesh      *transport.Mesh // nil when TCP
	meshOwned bool            // false when Options.Mesh was supplied

	// mu guards the mutable node maps and lifecycle state: the elasticity
	// controller mutates membership from its own goroutine while tests and
	// chaos scenarios drive the cluster from theirs.
	mu sync.Mutex

	dispatchers []*dispatcher.Dispatcher
	edges       []*edge.Edge
	edgeTr      []transport.Transport
	borders     []*federation.Border
	borderTr    []transport.Transport
	matchers    map[core.NodeID]*matcher.Matcher
	matcherTr   map[core.NodeID]transport.Transport
	dispTr      map[core.NodeID]transport.Transport
	order       []core.NodeID
	stopped     map[core.NodeID]bool // matchers crashed via CrashMatcher
	stoppedDisp map[int]bool         // dispatchers crashed via CrashDispatcher, by index
	generations map[core.NodeID]uint64
	states      map[core.NodeID]MatcherState // joining/draining markers

	nextNode       core.NodeID
	nextSubscriber core.SubscriberID
	seeds          []string

	telemetries map[core.NodeID]*telemetry.Telemetry
	admins      map[core.NodeID]*telemetry.Admin

	// Elasticity controller state (nil/zero unless Options.Elastic).
	elCtrl      *elastic.Controller
	elJnl       *store.Store
	elJnlErrors metrics.Counter
	elStop      chan struct{}
	elDone      chan struct{}
	elasticID   core.NodeID
}

// Start boots a cluster and blocks until the initial segment table has been
// published.
func Start(opts Options) (*Cluster, error) {
	if err := opts.defaults(); err != nil {
		return nil, err
	}
	c := &Cluster{
		opts:        opts,
		matchers:    make(map[core.NodeID]*matcher.Matcher),
		matcherTr:   make(map[core.NodeID]transport.Transport),
		dispTr:      make(map[core.NodeID]transport.Transport),
		stopped:     make(map[core.NodeID]bool),
		stoppedDisp: make(map[int]bool),
		generations: make(map[core.NodeID]uint64),
		states:      make(map[core.NodeID]MatcherState),
		nextNode:    1,
		telemetries: make(map[core.NodeID]*telemetry.Telemetry),
		admins:      make(map[core.NodeID]*telemetry.Admin),
	}
	if !opts.TCP {
		if opts.Mesh != nil {
			c.mesh = opts.Mesh
		} else {
			c.mesh = transport.NewMesh(0)
			c.meshOwned = true
		}
	}

	// Matchers first: their addresses seed the gossip overlay.
	ids := make([]core.NodeID, opts.Matchers)
	for i := 0; i < opts.Matchers; i++ {
		id := c.nextNode
		c.nextNode++
		m, err := c.startMatcher(id)
		if err != nil {
			c.Close()
			return nil, err
		}
		ids[i] = id
		c.matchers[id] = m
		c.order = append(c.order, id)
		if i == 0 {
			c.seeds = []string{m.Addr()}
		}
	}
	for i := 0; i < opts.Dispatchers; i++ {
		id := c.nextNode
		c.nextNode++
		d, err := c.startDispatcher(id)
		if err != nil {
			c.Close()
			return nil, err
		}
		c.dispatchers = append(c.dispatchers, d)
	}
	tab, err := partition.NewUniform(opts.Space, ids)
	if err != nil {
		c.Close()
		return nil, err
	}
	c.dispatchers[0].SetTable(tab)
	for i := 0; i < opts.Edges; i++ {
		id := c.nextNode
		c.nextNode++
		if err := c.startEdge(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	if opts.Federation {
		id := c.nextNode
		c.nextNode++
		if err := c.startBorder(id); err != nil {
			c.Close()
			return nil, err
		}
	}
	if opts.Elastic {
		if err := c.startElastic(); err != nil {
			c.Close()
			return nil, err
		}
	}
	return c, nil
}

// newTransport creates the per-node transport, wrapped in the chaos
// controller when one is configured. The raw TCP transport (nil on mesh
// clusters) is returned alongside so telemetry can register its counters.
func (c *Cluster) newTransport(label string) (transport.Transport, *transport.TCP) {
	var tr transport.Transport
	var tcp *transport.TCP
	if c.opts.TCP {
		t := transport.NewTCP()
		t.FlushInterval = c.opts.TCPFlushInterval
		tr, tcp = t, t
	} else {
		tr = c.mesh.Endpoint(label)
	}
	if c.opts.Chaos != nil {
		tr = chaos.Wrap(c.opts.Chaos, tr, label)
	}
	return tr, tcp
}

// nodeTelemetry builds one node's telemetry bundle (nil when the subsystem
// is off), registers transport counters, and starts the admin endpoint when
// requested.
func (c *Cluster) nodeTelemetry(id core.NodeID, role string, tcp *transport.TCP) (*telemetry.Telemetry, error) {
	if !c.opts.telemetryOn() {
		return nil, nil
	}
	tel := telemetry.New(telemetry.Options{
		SampleRate: c.opts.TraceSampleRate,
		Base: []telemetry.Label{
			telemetry.L("node", fmt.Sprintf("%d", id)),
			telemetry.L("role", role),
		},
	})
	if tcp != nil {
		r := tel.Registry
		r.Counter("transport.frames_sent", "one-way frames written", &tcp.FramesSent)
		r.Counter("transport.bytes_sent", "frame body bytes written", &tcp.BytesSent)
		r.Counter("transport.frames_received", "inbound frames handled", &tcp.FramesReceived)
		r.Counter("transport.bytes_received", "inbound frame body bytes", &tcp.BytesReceived)
	}
	c.telemetries[id] = tel
	if c.opts.Admin {
		adm, err := telemetry.Serve("127.0.0.1:0", tel)
		if err != nil {
			return nil, fmt.Errorf("cluster: admin endpoint for node %d: %w", id, err)
		}
		c.admins[id] = adm
	}
	return tel, nil
}

// nodeAddr returns the listen address for a node label.
func (c *Cluster) nodeAddr(label string) string {
	if c.opts.TCP {
		return "127.0.0.1:0"
	}
	return label
}

// nodeDataDir returns a node's journal directory (empty when the cluster is
// in-memory). Each node gets its own subdirectory so restarts recover only
// their own state.
func (c *Cluster) nodeDataDir(label string) string {
	if c.opts.DataDir == "" {
		return ""
	}
	return filepath.Join(c.opts.DataDir, label)
}

// diskFS returns the filesystem a durable node's journal should use: the
// chaos controller's fault-injecting wrapper when chaos is configured (keyed
// by the node label, so scenarios target disks the way they target links),
// nil otherwise (the store uses the real filesystem).
func (c *Cluster) diskFS(label string) store.FS {
	if c.opts.Chaos == nil || c.opts.DataDir == "" {
		return nil
	}
	return c.opts.Chaos.DiskFS(label, nil)
}

// onMatcherStoreFailure is the FailStop actuation: a matcher whose journal
// failed is crashed (from a fresh goroutine — the health callback must not
// re-enter the node), handing the incident to the existing failure-detection
// and recovery path.
func (c *Cluster) onMatcherStoreFailure(id core.NodeID) func(error) {
	return func(error) { go func() { _ = c.CrashMatcher(id) }() }
}

// onDispatcherStoreFailure crashes a failed-journal dispatcher by locating
// its current index (restarts keep the ID but may be re-slotted).
func (c *Cluster) onDispatcherStoreFailure(id core.NodeID) func(error) {
	return func(error) {
		go func() {
			for i, d := range c.dispatchers {
				if d.ID() == id && !c.stoppedDisp[i] {
					_ = c.CrashDispatcher(i)
					return
				}
			}
		}()
	}
}

// generation returns a node's current incarnation number (bumped on every
// restart so peers prefer the newest gossip about it).
func (c *Cluster) generation(id core.NodeID) uint64 {
	if g := c.generations[id]; g > 0 {
		return g
	}
	return 1
}

func (c *Cluster) startMatcher(id core.NodeID) (*matcher.Matcher, error) {
	label := c.label("matcher-%d", id)
	tr, tcp := c.newTransport(label)
	tel, err := c.nodeTelemetry(id, "matcher", tcp)
	if err != nil {
		return nil, err
	}
	m, err := matcher.New(matcher.Config{
		ID:             id,
		Addr:           c.nodeAddr(label),
		Space:          c.opts.Space,
		Transport:      tr,
		Seeds:          c.seeds,
		QueueDepth:     c.opts.MatcherQueueDepth,
		ReportInterval: c.opts.ReportInterval,
		GossipInterval: c.opts.GossipInterval,
		FailAfter:      c.opts.FailAfter,
		PruneGrace:     c.opts.PruneGrace,
		Generation:     c.generation(id),
		DataDir:        c.nodeDataDir(label),
		Fsync:          c.opts.Fsync,
		FS:             c.diskFS(label),
		FailPolicy:     c.opts.FailPolicy,
		OnStoreFailure: c.onMatcherStoreFailure(id),
		Telemetry:      tel,
	})
	if err != nil {
		return nil, err
	}
	if err := m.Start(); err != nil {
		return nil, err
	}
	c.matcherTr[id] = tr
	return m, nil
}

func (c *Cluster) startDispatcher(id core.NodeID) (*dispatcher.Dispatcher, error) {
	label := c.label("dispatcher-%d", id)
	tr, tcp := c.newTransport(label)
	tel, err := c.nodeTelemetry(id, "dispatcher", tcp)
	if err != nil {
		return nil, err
	}
	d, err := dispatcher.New(dispatcher.Config{
		ID:                id,
		Addr:              c.nodeAddr(label),
		Space:             c.opts.Space,
		Transport:         tr,
		Seeds:             c.seeds,
		Strategy:          c.opts.Strategy,
		Policy:            c.opts.Policy,
		GossipInterval:    c.opts.GossipInterval,
		FailAfter:         c.opts.FailAfter,
		RecoveryDelay:     c.opts.RecoveryDelay,
		Persistent:        c.opts.Persistent,
		RetryInterval:     c.opts.RetryInterval,
		RetryBudget:       c.opts.RetryBudget,
		RerouteBackoff:    c.opts.RerouteBackoff,
		BreakerThreshold:  c.opts.BreakerThreshold,
		AdmissionLimit:    c.opts.AdmissionLimit,
		MessageTTL:        c.opts.MessageTTL,
		ForwardLinger:     c.opts.ForwardLinger,
		ForwardBatchCount: c.opts.ForwardBatchCount,
		Generation:        c.generation(id),
		DataDir:           c.nodeDataDir(label),
		Fsync:             c.opts.Fsync,
		FS:                c.diskFS(label),
		FailPolicy:        c.opts.FailPolicy,
		OnStoreFailure:    c.onDispatcherStoreFailure(id),
		Telemetry:         tel,
	})
	if err != nil {
		return nil, err
	}
	if err := d.Start(); err != nil {
		return nil, err
	}
	c.dispTr[id] = tr
	return d, nil
}

func (c *Cluster) startEdge(id core.NodeID) error {
	label := c.label("edge-%d", id)
	tr, tcp := c.newTransport(label)
	tel, err := c.nodeTelemetry(id, "edge", tcp)
	if err != nil {
		return err
	}
	e, err := edge.New(edge.Config{
		ID:             id,
		Addr:           c.nodeAddr(label),
		Space:          c.opts.Space,
		Transport:      tr,
		DispatcherAddr: c.dispatchers[0].Addr(),
		Policy:         c.opts.EdgePolicy,
		BufferBytes:    c.opts.EdgeBufferBytes,
		ResumeWindow:   c.opts.ResumeWindow,
		Telemetry:      tel,
	})
	if err != nil {
		return err
	}
	if err := e.Start(); err != nil {
		return err
	}
	c.edges = append(c.edges, e)
	c.edgeTr = append(c.edgeTr, tr)
	return nil
}

func (c *Cluster) startBorder(id core.NodeID) error {
	label := c.label("border-%d", id)
	tr, tcp := c.newTransport(label)
	tel, err := c.nodeTelemetry(id, "border", tcp)
	if err != nil {
		return err
	}
	b, err := federation.Start(federation.Config{
		ID:              id,
		Addr:            c.nodeAddr(label),
		Space:           c.opts.Space,
		Transport:       tr,
		Seeds:           c.seeds,
		Cluster:         c.opts.ClusterID,
		Peers:           c.opts.FedPeers,
		SummaryInterval: c.opts.FedSummaryInterval,
		GossipInterval:  c.opts.GossipInterval,
		FailAfter:       c.opts.FailAfter,
		Generation:      c.generation(id),
		Seed:            int64(c.opts.ClusterID)<<16 | int64(id),
		Telemetry:       tel,
	})
	if err != nil {
		return err
	}
	c.borders = append(c.borders, b)
	c.borderTr = append(c.borderTr, tr)
	return nil
}

// Borders returns the running border nodes (empty unless
// Options.Federation).
func (c *Cluster) Borders() []*federation.Border { return c.borders }

// BorderAddrs returns the peer-facing addresses of every border node.
func (c *Cluster) BorderAddrs() []string {
	out := make([]string, len(c.borders))
	for i, b := range c.borders {
		out[i] = b.Addr()
	}
	return out
}

// Edges returns the running edge servers.
func (c *Cluster) Edges() []*edge.Edge { return c.edges }

// EdgeAddrs returns the session-facing addresses of every edge server.
func (c *Cluster) EdgeAddrs() []string {
	out := make([]string, len(c.edges))
	for i, e := range c.edges {
		out[i] = e.Addr()
	}
	return out
}

// NewEdgeSession attaches a subscriber session to edge edgeIdx. Sessions get
// the same duplicate-suppression window persistent clusters give direct
// clients, so resume replay overlap never reaches the application twice.
func (c *Cluster) NewEdgeSession(edgeIdx int, onDeliver func(*core.Message, []core.SubscriptionID)) (*client.EdgeSession, error) {
	if edgeIdx < 0 || edgeIdx >= len(c.edges) {
		return nil, fmt.Errorf("cluster: edge index %d out of range", edgeIdx)
	}
	sub := c.NewSubscriberID()
	label := c.label("edge-client-%d", sub)
	tr, _ := c.newTransport(label)
	return client.DialEdge(client.EdgeConfig{
		Transport:   tr,
		EdgeAddr:    c.edges[edgeIdx].Addr(),
		Subscriber:  sub,
		ListenAddr:  c.nodeAddr(label),
		OnDeliver:   onDeliver,
		DedupWindow: 4096,
	})
}

// ResumeEdgeSession re-dials a dropped edge session on edge edgeIdx with a
// fresh transport endpoint, carrying over prev's resume token and
// duplicate-suppression window. lastSeq 0 resumes from everything prev saw;
// an older explicit sequence forces a wider replay.
func (c *Cluster) ResumeEdgeSession(prev *client.EdgeSession, edgeIdx int, lastSeq uint64,
	onDeliver func(*core.Message, []core.SubscriptionID)) (*client.EdgeSession, error) {
	if edgeIdx < 0 || edgeIdx >= len(c.edges) {
		return nil, fmt.Errorf("cluster: edge index %d out of range", edgeIdx)
	}
	sub := c.NewSubscriberID()
	label := c.label("edge-client-%d", sub)
	tr, _ := c.newTransport(label)
	return prev.Resume(client.EdgeConfig{
		Transport:  tr,
		EdgeAddr:   c.edges[edgeIdx].Addr(),
		Subscriber: sub,
		ListenAddr: c.nodeAddr(label),
		OnDeliver:  onDeliver,
		LastSeq:    lastSeq,
	})
}

// DispatcherAddrs returns the front-end addresses clients connect to.
func (c *Cluster) DispatcherAddrs() []string {
	out := make([]string, len(c.dispatchers))
	for i, d := range c.dispatchers {
		out[i] = d.Addr()
	}
	return out
}

// Dispatchers returns the running dispatcher nodes.
func (c *Cluster) Dispatchers() []*dispatcher.Dispatcher { return c.dispatchers }

// Matcher returns the running matcher with the given ID, or nil.
func (c *Cluster) Matcher(id core.NodeID) *matcher.Matcher {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.matchers[id]
}

// MatcherIDs returns all started matcher IDs in start order (including any
// later stopped ones).
func (c *Cluster) MatcherIDs() []core.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]core.NodeID, len(c.order))
	copy(out, c.order)
	return out
}

// LiveMatcherIDs returns the IDs of matchers currently serving (started and
// not crashed or removed), in start order.
func (c *Cluster) LiveMatcherIDs() []core.NodeID {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []core.NodeID
	for _, id := range c.order {
		if !c.stopped[id] && c.matchers[id] != nil {
			out = append(out, id)
		}
	}
	return out
}

// AddMatcher starts a new matcher and runs the paper's join protocol: the
// matcher contacts a dispatcher, which splits the most loaded matcher's
// segment on every dimension and hands the halves over. Returns the new
// matcher's ID.
func (c *Cluster) AddMatcher() (core.NodeID, error) {
	c.mu.Lock()
	id := c.nextNode
	c.nextNode++
	m, err := c.startMatcher(id)
	if err != nil {
		c.mu.Unlock()
		return 0, err
	}
	c.matchers[id] = m
	c.order = append(c.order, id)
	c.states[id] = StateJoining
	tr := c.matcherTr[id]
	dispAddr := c.dispatchers[0].Addr()
	c.mu.Unlock()

	clearJoining := func() {
		c.mu.Lock()
		delete(c.states, id)
		c.mu.Unlock()
	}
	body := (&wire.JoinBody{ID: id, Addr: m.Addr()}).Encode()
	resp, err := tr.Request(dispAddr,
		&wire.Envelope{Kind: wire.KindJoin, From: id, Body: body}, 5*time.Second)
	if err != nil {
		clearJoining()
		return id, fmt.Errorf("cluster: join request: %w", err)
	}
	ack, err := wire.DecodeJoinAck(resp.Body)
	if err != nil {
		clearJoining()
		return id, err
	}
	clearJoining()
	if ack.Err != "" {
		return id, fmt.Errorf("cluster: join rejected: %s", ack.Err)
	}
	return id, nil
}

// CrashMatcher kills a matcher without any goodbye: its traffic is dropped
// from the instant of the crash, and the cluster relies on failure
// detection and recovery (paper Section IV-E).
func (c *Cluster) CrashMatcher(id core.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.matchers[id]
	if !ok {
		return fmt.Errorf("cluster: unknown matcher %v", id)
	}
	if c.mesh != nil {
		c.mesh.SetDown(m.Addr(), true)
	}
	if c.opts.Chaos != nil {
		c.opts.Chaos.Kill(m.Addr())
	}
	m.Stop()
	c.stopped[id] = true
	if c.opts.TCP {
		c.matcherTr[id].Close()
	}
	return nil
}

// RestartMatcher boots a crashed matcher again under the same identity with
// a bumped generation. On a durable cluster (Options.DataDir) the new
// incarnation recovers its subscription set from its journal before serving;
// on an in-memory cluster it comes back empty and relies on dispatcher
// re-registration.
func (c *Cluster) RestartMatcher(id core.NodeID) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.matchers[id]
	if !ok {
		return fmt.Errorf("cluster: unknown matcher %v", id)
	}
	if !c.stopped[id] {
		return fmt.Errorf("cluster: matcher %v is not crashed", id)
	}
	if c.mesh != nil {
		c.mesh.Unbind(m.Addr())
		c.mesh.SetDown(m.Addr(), false)
	}
	if c.opts.Chaos != nil {
		c.opts.Chaos.Restart(m.Addr())
	}
	if adm := c.admins[id]; adm != nil {
		adm.Close()
		delete(c.admins, id)
	}
	c.generations[id] = c.generation(id) + 1
	m2, err := c.startMatcher(id)
	if err != nil {
		return fmt.Errorf("cluster: restart matcher %v: %w", id, err)
	}
	c.matchers[id] = m2
	delete(c.stopped, id)
	return nil
}

// CrashDispatcher kills a dispatcher (by index) without any goodbye —
// in-flight client publishes fail and its pending-forward table freezes
// where it was.
func (c *Cluster) CrashDispatcher(idx int) error {
	if idx < 0 || idx >= len(c.dispatchers) {
		return fmt.Errorf("cluster: dispatcher index %d out of range", idx)
	}
	if c.stoppedDisp[idx] {
		return fmt.Errorf("cluster: dispatcher %d already crashed", idx)
	}
	d := c.dispatchers[idx]
	if c.mesh != nil {
		c.mesh.SetDown(d.Addr(), true)
	}
	if c.opts.Chaos != nil {
		c.opts.Chaos.Kill(d.Addr())
	}
	d.Stop()
	c.stoppedDisp[idx] = true
	if c.opts.TCP {
		c.dispTr[d.ID()].Close()
	}
	return nil
}

// RestartDispatcher boots a crashed dispatcher again under the same identity
// with a bumped generation. On a durable cluster it recovers its
// subscription registry and unacked pending publications from its journal
// and retransmits the latter once a segment table is re-adopted.
func (c *Cluster) RestartDispatcher(idx int) error {
	if idx < 0 || idx >= len(c.dispatchers) {
		return fmt.Errorf("cluster: dispatcher index %d out of range", idx)
	}
	if !c.stoppedDisp[idx] {
		return fmt.Errorf("cluster: dispatcher %d is not crashed", idx)
	}
	d := c.dispatchers[idx]
	id := d.ID()
	if c.mesh != nil {
		c.mesh.Unbind(d.Addr())
		c.mesh.SetDown(d.Addr(), false)
	}
	if c.opts.Chaos != nil {
		c.opts.Chaos.Restart(d.Addr())
	}
	if adm := c.admins[id]; adm != nil {
		adm.Close()
		delete(c.admins, id)
	}
	c.generations[id] = c.generation(id) + 1
	d2, err := c.startDispatcher(id)
	if err != nil {
		return fmt.Errorf("cluster: restart dispatcher %d: %w", idx, err)
	}
	c.dispatchers[idx] = d2
	delete(c.stoppedDisp, idx)
	return nil
}

// ThrottleMatcher slows one matcher's service rate by adding d of work per
// matched publication (0 restores full speed) — a CPU-starved or GC-bound
// "slow node" whose stages back up and busy-NACK, unlike a chaos link delay
// which only stretches latency. Returns false for unknown matchers.
func (c *Cluster) ThrottleMatcher(id core.NodeID, d time.Duration) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.matchers[id]
	if !ok {
		return false
	}
	m.SetServiceThrottle(d)
	return true
}

// MatcherAddr returns the transport address of a started matcher (crashed
// ones included), for addressing chaos scenarios at cluster nodes.
func (c *Cluster) MatcherAddr(id core.NodeID) (string, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	m, ok := c.matchers[id]
	if !ok {
		return "", false
	}
	return m.Addr(), true
}

// IsolateMatcherOutbound cuts (or heals) every outbound link of a matcher
// on the in-process mesh: it still receives traffic but its deliveries,
// acks, reports and gossip responses are lost — a one-way network failure.
// Only available on mesh clusters.
func (c *Cluster) IsolateMatcherOutbound(id core.NodeID, cut bool) error {
	if c.mesh == nil {
		return errors.New("cluster: outbound isolation requires the in-process mesh")
	}
	m, ok := c.matchers[id]
	if !ok {
		return fmt.Errorf("cluster: unknown matcher %v", id)
	}
	for _, d := range c.dispatchers {
		c.mesh.Partition(m.Addr(), d.Addr(), cut)
	}
	for _, other := range c.matchers {
		if other.ID() != id {
			c.mesh.Partition(m.Addr(), other.Addr(), cut)
		}
	}
	return nil
}

// PartitionLink cuts (or heals) the directed mesh link from one address to
// another (mesh clusters only); exposed for fault-injection tests.
func (c *Cluster) PartitionLink(from, to string, cut bool) error {
	if c.mesh == nil {
		return errors.New("cluster: partitions require the in-process mesh")
	}
	c.mesh.Partition(from, to, cut)
	return nil
}

// NewSubscriberID allocates a unique subscriber identity.
func (c *Cluster) NewSubscriberID() core.SubscriberID {
	c.nextSubscriber++
	return c.nextSubscriber
}

// NewClient connects a client to dispatcher dispIdx. When onDeliver is
// non-nil the client uses direct delivery; otherwise indirect (polled).
func (c *Cluster) NewClient(dispIdx int, onDeliver func(*core.Message, []core.SubscriptionID)) (*client.Client, error) {
	if dispIdx < 0 || dispIdx >= len(c.dispatchers) {
		return nil, fmt.Errorf("cluster: dispatcher index %d out of range", dispIdx)
	}
	sub := c.NewSubscriberID()
	label := c.label("client-%d", sub)
	tr, _ := c.newTransport(label)
	cfg := client.Config{
		Transport:      tr,
		DispatcherAddr: c.dispatchers[dispIdx].Addr(),
		Subscriber:     sub,
	}
	if onDeliver != nil {
		cfg.ListenAddr = c.nodeAddr(label)
		cfg.OnDeliver = onDeliver
		if c.opts.Persistent {
			// At-least-once forwarding can redeliver (lost acks, node
			// restarts); the window keeps redeliveries away from the
			// application callback.
			cfg.DedupWindow = 4096
		}
	}
	return client.New(cfg)
}

// NewAckClient connects a publish-only client to dispatcher dispIdx whose
// publishes round-trip (client.Config.AckPublish): the dispatcher explicitly
// admits or rejects each publication, and admission-control rejections
// surface as client.ErrOverloaded.
func (c *Cluster) NewAckClient(dispIdx int) (*client.Client, error) {
	if dispIdx < 0 || dispIdx >= len(c.dispatchers) {
		return nil, fmt.Errorf("cluster: dispatcher index %d out of range", dispIdx)
	}
	sub := c.NewSubscriberID()
	tr, _ := c.newTransport(c.label("client-%d", sub))
	return client.New(client.Config{
		Transport:      tr,
		DispatcherAddr: c.dispatchers[dispIdx].Addr(),
		Subscriber:     sub,
		AckPublish:     true,
	})
}

// Telemetry returns a node's telemetry bundle (nil when the subsystem is
// off or the ID is unknown).
func (c *Cluster) Telemetry(id core.NodeID) *telemetry.Telemetry {
	return c.telemetries[id]
}

// AdminAddr returns the bound admin endpoint of one node (Options.Admin).
func (c *Cluster) AdminAddr(id core.NodeID) (string, bool) {
	adm, ok := c.admins[id]
	if !ok {
		return "", false
	}
	return adm.Addr(), true
}

// AdminAddrs returns every node's bound admin endpoint, keyed by node ID
// (empty unless Options.Admin was set).
func (c *Cluster) AdminAddrs() map[core.NodeID]string {
	out := make(map[core.NodeID]string, len(c.admins))
	for id, adm := range c.admins {
		out[id] = adm.Addr()
	}
	return out
}

// Table returns the current authoritative table as seen by dispatcher 0.
func (c *Cluster) Table() *partition.Table { return c.dispatchers[0].Table() }

// WaitForTable blocks until every matcher and dispatcher has adopted a
// table with at least the given version (or the timeout elapses).
func (c *Cluster) WaitForTable(version uint64, timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		ready := true
		for _, d := range c.dispatchers {
			if t := d.Table(); t == nil || t.Version() < version {
				ready = false
			}
		}
		c.mu.Lock()
		ms := make([]*matcher.Matcher, 0, len(c.order))
		for _, id := range c.order {
			if m := c.matchers[id]; m != nil && !c.stopped[id] {
				ms = append(ms, m)
			}
		}
		c.mu.Unlock()
		for _, m := range ms {
			if t := m.Table(); t == nil || t.Version() < version {
				ready = false
			}
		}
		if ready {
			return nil
		}
		time.Sleep(10 * time.Millisecond)
	}
	return errors.New("cluster: table propagation timed out")
}

// CheckConvergence audits post-fault agreement across the surviving nodes:
// every live dispatcher and matcher must (a) agree on one segment-table
// version, (b) consider every other survivor alive, and (c) consider every
// crashed matcher not alive. A nil return means the control plane has
// re-converged after faults healed.
func (c *Cluster) CheckConvergence() error {
	type node struct {
		name string
		gsp  *gossip.Gossiper
		tab  *partition.Table
	}
	c.mu.Lock()
	var live []node
	for i, d := range c.dispatchers {
		if c.stoppedDisp[i] {
			continue
		}
		live = append(live, node{fmt.Sprintf("dispatcher-%d", d.ID()), d.Gossiper(), d.Table()})
	}
	for _, id := range c.order {
		if c.stopped[id] {
			continue
		}
		m := c.matchers[id]
		live = append(live, node{fmt.Sprintf("matcher-%d", id), m.Gossiper(), m.Table()})
	}
	if len(live) == 0 {
		c.mu.Unlock()
		return errors.New("cluster: no survivors to converge")
	}
	var version uint64
	for i, n := range live {
		if n.tab == nil {
			c.mu.Unlock()
			return fmt.Errorf("cluster: %s has no segment table", n.name)
		}
		if i == 0 {
			version = n.tab.Version()
		} else if v := n.tab.Version(); v != version {
			c.mu.Unlock()
			return fmt.Errorf("cluster: segment tables diverge: %s at v%d, %s at v%d",
				live[0].name, version, n.name, v)
		}
	}
	liveIDs := make(map[core.NodeID]string)
	deadIDs := make(map[core.NodeID]string)
	for i, d := range c.dispatchers {
		if c.stoppedDisp[i] {
			deadIDs[d.ID()] = fmt.Sprintf("dispatcher-%d", d.ID())
		} else {
			liveIDs[d.ID()] = fmt.Sprintf("dispatcher-%d", d.ID())
		}
	}
	for _, id := range c.order {
		if !c.stopped[id] {
			liveIDs[id] = fmt.Sprintf("matcher-%d", id)
		}
	}
	for id := range c.stopped {
		deadIDs[id] = fmt.Sprintf("matcher-%d", id)
	}
	c.mu.Unlock()
	for _, n := range live {
		for id, name := range liveIDs {
			if !n.gsp.Alive(id) {
				return fmt.Errorf("cluster: %s believes survivor %s dead", n.name, name)
			}
		}
		for id, name := range deadIDs {
			if n.gsp.Alive(id) {
				return fmt.Errorf("cluster: %s believes crashed %s alive", n.name, name)
			}
		}
	}
	return nil
}

// WaitConverged polls CheckConvergence until it passes or the timeout
// elapses (returning the last failure).
func (c *Cluster) WaitConverged(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	var err error
	for {
		if err = c.CheckConvergence(); err == nil {
			return nil
		}
		if !time.Now().Before(deadline) {
			return fmt.Errorf("cluster: convergence timed out: %w", err)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// Close stops every node.
func (c *Cluster) Close() {
	c.stopElastic()
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, adm := range c.admins {
		adm.Close()
	}
	for _, b := range c.borders {
		b.Stop()
	}
	for _, e := range c.edges {
		e.Stop()
	}
	for _, d := range c.dispatchers {
		d.Stop()
	}
	for _, m := range c.matchers {
		m.Stop()
	}
	if c.mesh != nil && c.meshOwned {
		c.mesh.Close()
	}
	if c.opts.TCP {
		for _, tr := range c.matcherTr {
			tr.Close()
		}
		for _, tr := range c.dispTr {
			tr.Close()
		}
		for _, tr := range c.edgeTr {
			tr.Close()
		}
		for _, tr := range c.borderTr {
			tr.Close()
		}
	}
}
