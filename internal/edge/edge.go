// Package edge implements BlueDove's edge connection tier: a server that
// multiplexes many lightweight subscriber sessions behind one aggregated
// upstream subscriber, making delivery fan-out a first-class, separately
// scalable stage (in the spirit of MigratoryData's edge servers fronting
// ~100k connections per node).
//
// An edge registers ONE subscription per (edge, dimension-range) with a
// dispatcher — the bounding cuboid of every local session predicate,
// widened (never shrunk) as sessions subscribe — and re-matches each
// incoming DeliverBatch against a per-edge subscription table built on
// internal/index's bucket index. Matched publications are
// sequence-stamped per session and pushed as KindEdgeDeliver frames.
//
// The hot path is an epoll-style readiness loop, not a goroutine pair per
// session: fan-in encodes each publication once, appends a copy to every
// matching session's bounded buffer and hands the sessions it made ready to
// a small fixed pool of flush workers in one batch; each worker drains a
// batch of ready sessions at a time.
// The per-connection read goroutines belong to the transport layer — the
// edge itself adds no per-session goroutines.
//
// Upstream deliveries are staged on a fan-in queue drained by a dedicated
// goroutine rather than fanned out on the transport's inbound goroutine:
// transports deliver one-way frames per address in order, so a fan-in stall
// (a backpressured session) must never block the handler, or the very ack
// frames that would relieve the stall would be starved behind it. Control
// frames (acks, unsubs, closes) are always handled inline; the staging
// queue's depth is observable as edge.fanin_staged.
//
// Each session's send buffer is bounded (Config.BufferBytes) with a
// configurable slow-consumer policy:
//
//   - backpressure: fan-in blocks until the consumer acks — nothing is
//     dropped while the session is attached, and the stall propagates
//     upstream exactly like TCP backpressure would.
//   - drop-oldest: the oldest unsent delivery is evicted to make room; the
//     consumer sees only newer traffic (bounded staleness).
//   - disconnect: the session is detached on overflow; it may resume later.
//
// Flow control is ack-driven: a session may have at most BufferBytes of
// sent-but-unacked deliveries — and at most ResumeWindow of them, so the
// window closes even when frames are tiny — in flight, so a consumer that
// stops acking stops being sent to; slowness is modeled at the edge,
// independent of the transport's own buffering. Sessions carry a resumable
// token: a reconnecting subscriber replays everything newer than its last
// seen sequence from a bounded per-session ring (Config.ResumeWindow
// entries; while a session is attached nothing unacked is ever evicted from
// it — the ring is only trimmed to the window while the session is away).
// Deliveries that aged out of the ring are reported as lost in the welcome.
// A session ends for good on a KindSessionClose frame or, if it stays
// detached longer than Config.SessionRetention, by expiry — either way its
// buffers, ring and subscriptions are freed and the token is gone.
package edge

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/metrics"
	"bluedove/internal/seda"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// Policy selects what happens to a session whose send buffer is full.
type Policy uint8

// Slow-consumer policies.
const (
	// PolicyBackpressure blocks fan-in until the consumer acks (default).
	PolicyBackpressure Policy = iota
	// PolicyDropOldest evicts the oldest unsent delivery to make room.
	PolicyDropOldest
	// PolicyDisconnect detaches the session on overflow.
	PolicyDisconnect
)

// String names the policy as it appears in flags and telemetry labels.
func (p Policy) String() string {
	switch p {
	case PolicyBackpressure:
		return "backpressure"
	case PolicyDropOldest:
		return "drop-oldest"
	case PolicyDisconnect:
		return "disconnect"
	}
	return fmt.Sprintf("policy(%d)", uint8(p))
}

// PolicyByName parses a policy name.
func PolicyByName(name string) (Policy, error) {
	switch name {
	case "", "backpressure":
		return PolicyBackpressure, nil
	case "drop-oldest":
		return PolicyDropOldest, nil
	case "disconnect":
		return PolicyDisconnect, nil
	}
	return 0, fmt.Errorf("edge: unknown slow-consumer policy %q", name)
}

// subscriberBit tags the edge's aggregated upstream subscriber ID so it can
// never collide with a real client's SubscriberID (matchers group deliveries
// per subscriber; a collision would misroute a direct client's traffic).
const subscriberBit uint64 = 0xE << 56

// Config parameterizes an Edge.
type Config struct {
	// ID is the edge's node identity; required.
	ID core.NodeID
	// Addr is the listen address for session traffic and upstream
	// deliveries; required.
	Addr string
	// Space is the attribute space; required.
	Space *core.Space
	// Transport carries all edge traffic; required.
	Transport transport.Transport
	// DispatcherAddr is the upstream front end the aggregated subscriber
	// registers with; required.
	DispatcherAddr string
	// Policy is the slow-consumer policy (default backpressure).
	Policy Policy
	// BufferBytes bounds each session's unsent backlog and its
	// sent-but-unacked flight window (default 256 KiB).
	BufferBytes int
	// ResumeWindow bounds the per-session resume ring, in deliveries
	// (default 1024). It also caps the sent-but-unacked flight window in
	// entries, so unacked deliveries never age out of an attached session's
	// ring.
	ResumeWindow int
	// SessionRetention is how long a detached session is kept resumable
	// before it expires and its ring, buffers and subscriptions are freed
	// (default 10m; negative keeps sessions forever).
	SessionRetention time.Duration
	// FlushWorkers sizes the readiness-loop worker pool (default 4).
	FlushWorkers int
	// Deprecated: ignored; the edge always runs the bucket index.
	NoCovering bool
	// RequestTimeout bounds the upstream subscribe round-trip (default 5s).
	RequestTimeout time.Duration
	// Telemetry, when non-nil, registers the edge.* metric family.
	Telemetry *telemetry.Telemetry
	// Now supplies the clock for rate meters (default time.Now).
	Now func() int64
}

// entry is one buffered delivery: an encoded EdgeDeliverBody and its
// sequence, retained from fan-in until acked (or aged out of the ring).
type entry struct {
	seq  uint64
	size int
	body []byte
}

// session is one subscriber session. All mutable state is guarded by mu;
// cond (tied to mu) wakes backpressure waiters when space frees or the
// session detaches.
type session struct {
	token      uint64
	subscriber core.SubscriberID
	addr       string               // deliver address (transport sessions)
	sink       func(*wire.Envelope) // local in-process sessions

	mu   sync.Mutex
	cond *sync.Cond
	// pending is the unsent backlog (policy-bounded by BufferBytes).
	pending      []entry
	pendingBytes int
	// ring holds sent-but-unacked deliveries: the ack flight window
	// (bounded by BufferBytes) and the resume replay source (bounded by
	// ResumeWindow entries).
	ring       []entry
	ringBytes  int
	acked      uint64
	nextSeq    uint64 // next sequence to assign (starts at 1)
	detached   bool
	detachedAt int64 // Config.Now timestamp of the detach (0 while attached)
	closed     bool
	queued     bool // in the ready queue
	subs       map[core.SubscriptionID]struct{}
}

// Edge is a running edge server.
type Edge struct {
	cfg        Config
	listenAddr string

	// mu guards the subscription table, the session map and token/ID
	// assignment. Re-matching and session lookups only read them and take
	// mu shared, so an ack never waits behind a re-match. Per-session
	// buffers use the session's own lock so a slow consumer never blocks
	// matching.
	mu       sync.RWMutex
	idx      *index.Bucket
	sessions map[uint64]*session
	nextTok  uint64
	nextSub  uint64
	closed   bool
	// fanOutMsg's re-match buffers, reused across publications; perSess is
	// cleared after each so it pins no session, and hits holds no pointer.
	// fanMu guards them; in steady state only the fan-in worker takes it.
	fanMu   sync.Mutex
	hits    []index.Hit
	perSess map[uint64]int

	// aggMu serializes upstream (re-)registration of the aggregated
	// subscriber; agg is the current bounding cuboid (nil before the first
	// subscription).
	aggMu      sync.Mutex
	agg        []core.Range
	upstreamID core.SubscriptionID

	// ready holds the sessions the flush workers drain, each taking a fair
	// share. fanin stages upstream publications for the fan-in worker. It is
	// unbounded on purpose: the transport delivers one-way frames per
	// address in order, so blocking the handler here (a backpressured
	// session) would starve the ack frames queued behind the delivery — the
	// very frames that relieve the stall. Its depth is edge.fanin_staged.
	ready seda.Queue[*session]
	fanin seda.Queue[*core.Message]
	stop  chan struct{}
	wg    sync.WaitGroup

	bufferedBytes atomic.Int64
	attached      atomic.Int64
	staged        atomic.Int64

	fanIn             metrics.Counter // publications received from matchers
	fanOut            metrics.Counter // per-session deliveries enqueued
	sent              metrics.Counter // frames handed to the transport/sink
	droppedOldest     metrics.Counter
	slowDisconnects   metrics.Counter
	backpressureWaits metrics.Counter
	resumes           metrics.Counter
	replayed          metrics.Counter
	resumeLost        metrics.Counter
	ringEvicted       metrics.Counter // entries aged out of detached sessions' rings
	sessionsExpired   metrics.Counter // detached sessions reaped after SessionRetention
	sendFailures      metrics.Counter
	arrival           *metrics.RateMeter // fan-out λ
	service           *metrics.RateMeter // fan-out μ
}

// dropFront removes the first n elements of q in place and clears the
// vacated tail, so the dropped values are not pinned by the backing array
// and later appends reuse its capacity instead of reallocating.
func dropFront[T any](q []T, n int) []T {
	if n == 0 {
		return q
	}
	m := copy(q, q[n:])
	clear(q[m:])
	return q[:m]
}

// New builds an edge server.
func New(cfg Config) (*Edge, error) {
	if cfg.Space == nil || cfg.Transport == nil || cfg.DispatcherAddr == "" {
		return nil, errors.New("edge: Space, Transport and DispatcherAddr are required")
	}
	if cfg.ID == 0 {
		return nil, errors.New("edge: ID is required")
	}
	if cfg.BufferBytes <= 0 {
		cfg.BufferBytes = 256 << 10
	}
	if cfg.ResumeWindow <= 0 {
		cfg.ResumeWindow = 1024
	}
	if cfg.FlushWorkers <= 0 {
		cfg.FlushWorkers = 4
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.SessionRetention == 0 {
		cfg.SessionRetention = 10 * time.Minute
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	e := &Edge{
		cfg:      cfg,
		idx:      index.NewBucket(cfg.Space, 0, index.DefaultBuckets),
		sessions: make(map[uint64]*session),
		perSess:  make(map[uint64]int, 8),
		stop:     make(chan struct{}),
		arrival:  metrics.NewRateMeter(2*time.Second, 20),
		service:  metrics.NewRateMeter(2*time.Second, 20),
	}
	if cfg.Telemetry != nil {
		e.registerTelemetry()
	}
	return e, nil
}

func (e *Edge) registerTelemetry() {
	r := e.cfg.Telemetry.Registry
	r.Gauge("node.info", "constant 1; labels identify the node", func(int64) float64 { return 1 })
	r.Gauge("edge.sessions", "attached subscriber sessions",
		func(int64) float64 { return float64(e.attached.Load()) })
	r.Counter("edge.fanout_in", "publications received from matchers", &e.fanIn)
	r.Counter("edge.fanout_deliveries", "per-session deliveries enqueued by local re-matching", &e.fanOut)
	r.Gauge("edge.fanout_arrival_rate", "deliveries enqueued per second (λ)",
		func(now int64) float64 { return e.arrival.Rate(now) })
	r.Gauge("edge.fanout_service_rate", "deliveries flushed per second (μ)",
		func(now int64) float64 { return e.service.Rate(now) })
	r.Gauge("edge.buffered_bytes", "bytes held in session send buffers and resume rings",
		func(int64) float64 { return float64(e.bufferedBytes.Load()) })
	r.Counter("edge.drops", "slow-consumer policy actions",
		&e.droppedOldest, telemetry.L("policy", "drop-oldest"))
	r.Counter("edge.drops", "slow-consumer policy actions",
		&e.slowDisconnects, telemetry.L("policy", "disconnect"))
	r.Counter("edge.drops", "slow-consumer policy actions",
		&e.backpressureWaits, telemetry.L("policy", "backpressure"))
	r.Counter("edge.resumes", "sessions resumed from a token", &e.resumes)
	r.Counter("edge.replayed", "deliveries replayed to resumed sessions", &e.replayed)
	r.Counter("edge.resume_lost", "deliveries aged out of resume rings before reconnect", &e.resumeLost)
	r.Counter("edge.ring_evicted", "deliveries evicted from detached sessions' resume rings", &e.ringEvicted)
	r.Counter("edge.sessions_expired", "detached sessions expired after SessionRetention", &e.sessionsExpired)
	r.Gauge("edge.fanin_staged", "upstream publications staged for fan-in",
		func(int64) float64 { return float64(e.staged.Load()) })
	r.Counter("edge.send_failures", "delivery frames the transport could not send", &e.sendFailures)
}

// Start binds the edge's listener and launches the flush workers.
func (e *Edge) Start() error {
	addr, err := e.cfg.Transport.Listen(e.cfg.Addr, e.handle)
	if err != nil {
		return err
	}
	e.listenAddr = addr
	for i := 0; i < e.cfg.FlushWorkers; i++ {
		e.wg.Add(1)
		go e.flushWorker()
	}
	e.wg.Add(1)
	go e.faninWorker()
	if e.cfg.SessionRetention > 0 {
		e.wg.Add(1)
		go e.janitor()
	}
	return nil
}

// Addr returns the bound listen address.
func (e *Edge) Addr() string { return e.listenAddr }

// ID returns the edge's node identity.
func (e *Edge) ID() core.NodeID { return e.cfg.ID }

// Stop detaches every session and stops the workers. The transport is owned
// by the caller and is not closed.
func (e *Edge) Stop() {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return
	}
	e.closed = true
	sess := make([]*session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sess = append(sess, s)
	}
	e.mu.Unlock()
	for _, s := range sess {
		s.mu.Lock()
		s.closed = true
		s.mu.Unlock()
		s.cond.Broadcast()
	}
	close(e.stop)
	e.fanin.Close()
	e.ready.Close()
	e.wg.Wait()
}

// Sessions returns the number of attached sessions.
func (e *Edge) Sessions() int { return int(e.attached.Load()) }

// BufferedBytes returns the bytes currently held across all session buffers.
func (e *Edge) BufferedBytes() int64 { return e.bufferedBytes.Load() }

// Counter accessors for tests and benchmarks.
func (e *Edge) FanIn() int64             { return e.fanIn.Value() }
func (e *Edge) FanOut() int64            { return e.fanOut.Value() }
func (e *Edge) DroppedOldest() int64     { return e.droppedOldest.Value() }
func (e *Edge) SlowDisconnects() int64   { return e.slowDisconnects.Value() }
func (e *Edge) BackpressureWaits() int64 { return e.backpressureWaits.Value() }
func (e *Edge) Resumes() int64           { return e.resumes.Value() }
func (e *Edge) Replayed() int64          { return e.replayed.Value() }
func (e *Edge) ResumeLost() int64        { return e.resumeLost.Value() }
func (e *Edge) RingEvicted() int64       { return e.ringEvicted.Value() }
func (e *Edge) SessionsExpired() int64   { return e.sessionsExpired.Value() }

// handle is the edge's transport handler: session control frames, session
// acks, and upstream deliveries.
func (e *Edge) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindSessionHello:
		b, err := wire.DecodeSessionHello(env.Body)
		if err != nil {
			return errEnv(err)
		}
		w, err := e.hello(b, nil)
		if err != nil {
			w = &wire.SessionWelcomeBody{Err: err.Error()}
		}
		return &wire.Envelope{Kind: wire.KindSessionWelcome, From: e.cfg.ID, Body: w.Encode()}
	case wire.KindSessionSub:
		b, err := wire.DecodeSessionSub(env.Body)
		if err != nil {
			return errEnv(err)
		}
		ack := &wire.SessionSubAckBody{}
		id, err := e.subscribe(b.Token, b.Sub)
		if err != nil {
			ack.Err = err.Error()
		} else {
			ack.ID = id
		}
		return &wire.Envelope{Kind: wire.KindSessionSubAck, From: e.cfg.ID, Body: ack.Encode()}
	case wire.KindSessionUnsub:
		if b, err := wire.DecodeSessionUnsub(env.Body); err == nil {
			e.unsubscribe(b.Token, b.ID)
		}
	case wire.KindSessionAck:
		if b, err := wire.DecodeSessionAck(env.Body); err == nil {
			e.ack(b.Token, b.Seq)
		}
	case wire.KindSessionClose:
		if b, err := wire.DecodeSessionClose(env.Body); err == nil {
			e.closeSession(b.Token, false, 0)
		}
	// Deliveries are staged, never fanned out on the transport's inbound
	// goroutine: under PolicyBackpressure fan-in can stall on a slow
	// session, and the acks that relieve the stall arrive on this very
	// goroutine — blocking here would deadlock the whole edge.
	case wire.KindDeliverBatch:
		if b, err := wire.DecodeDeliverBatch(env.Body); err == nil {
			for i := range b.Deliveries {
				e.stage(b.Deliveries[i].Msg)
			}
		}
	}
	return nil
}

// stage enqueues one upstream publication for the fan-in worker.
func (e *Edge) stage(msg *core.Message) {
	if msg == nil {
		return
	}
	e.staged.Add(1)
	e.fanin.Push(msg)
}

// faninWorker drains the staging queue in order. It is the one goroutine a
// backpressured session may stall — control frames keep flowing regardless.
func (e *Edge) faninWorker() {
	defer e.wg.Done()
	var batch []*core.Message
	for {
		var ok bool
		if batch, ok = e.fanin.Take(batch, 1); !ok {
			return
		}
		for _, msg := range batch {
			e.staged.Add(-1)
			e.fanOutMsg(msg)
		}
	}
}

func errEnv(err error) *wire.Envelope {
	return &wire.Envelope{Kind: wire.KindError, Body: (&wire.ErrorBody{Text: err.Error()}).Encode()}
}

// AttachLocal opens or resumes an in-process session delivering frames
// through sink instead of the transport — how benchmarks host 100k sessions
// on one edge without 100k transport endpoints. The handshake, buffers,
// policies and resume machinery are identical to transport sessions (frames
// are still wire-encoded); only the final write is a function call. The sink
// must be fast and non-blocking: model slow consumers by withholding acks.
func (e *Edge) AttachLocal(hello *wire.SessionHelloBody, sink func(*wire.Envelope)) (*wire.SessionWelcomeBody, error) {
	if sink == nil {
		return nil, errors.New("edge: AttachLocal requires a sink")
	}
	return e.hello(hello, sink)
}

// Deliver injects one upstream publication as one delivery of a
// KindDeliverBatch frame would (bench/chaos hook: drives fan-in without a
// transport endpoint, so backpressure stalls the caller directly).
func (e *Edge) Deliver(msg *core.Message) { e.fanOutMsg(msg) }

// Subscribe registers one session subscription (the KindSessionSub path).
func (e *Edge) Subscribe(token uint64, sub *core.Subscription) (core.SubscriptionID, error) {
	return e.subscribe(token, sub)
}

// Ack advances a session's cumulative ack (the KindSessionAck path).
func (e *Edge) Ack(token, seq uint64) { e.ack(token, seq) }

// hello opens (Token == 0) or resumes a session.
func (e *Edge) hello(b *wire.SessionHelloBody, sink func(*wire.Envelope)) (*wire.SessionWelcomeBody, error) {
	if b.Token == 0 {
		e.mu.Lock()
		if e.closed {
			e.mu.Unlock()
			return nil, errors.New("edge: stopped")
		}
		e.nextTok++
		s := &session{
			token:      e.nextTok,
			subscriber: b.Subscriber,
			addr:       b.DeliverAddr,
			sink:       sink,
			nextSeq:    1,
			subs:       make(map[core.SubscriptionID]struct{}),
		}
		s.cond = sync.NewCond(&s.mu)
		e.sessions[s.token] = s
		e.mu.Unlock()
		e.attached.Add(1)
		return &wire.SessionWelcomeBody{Token: s.token, NextSeq: 1}, nil
	}

	e.mu.RLock()
	s, ok := e.sessions[b.Token]
	e.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("edge: unknown session token %d", b.Token)
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("edge: session closed")
	}
	wasDetached := s.detached
	s.addr = b.DeliverAddr
	s.sink = sink
	s.detached = false
	s.detachedAt = 0
	if b.LastSeq > s.acked {
		s.acked = b.LastSeq
	}
	// Everything the subscriber confirms leaves the ring; what remains
	// (newer than LastSeq) is replayed by moving it back to the front of
	// the unsent backlog. Sequences between LastSeq and the oldest retained
	// entry aged out of the ring — they are gone, and the welcome says so.
	e.trimAckedLocked(s)
	var lost uint64
	firstRetained := s.nextSeq
	if len(s.ring) > 0 {
		firstRetained = s.ring[0].seq
	} else if len(s.pending) > 0 && s.pending[0].seq < firstRetained {
		firstRetained = s.pending[0].seq
	}
	if firstRetained > b.LastSeq+1 {
		lost = firstRetained - b.LastSeq - 1
	}
	replayed := len(s.ring)
	if replayed > 0 {
		merged := make([]entry, 0, len(s.ring)+len(s.pending))
		merged = append(merged, s.ring...)
		merged = append(merged, s.pending...)
		s.pending = merged
		s.pendingBytes += s.ringBytes
		s.ring = nil
		s.ringBytes = 0
	}
	welcome := &wire.SessionWelcomeBody{
		Token:   s.token,
		Resumed: true,
		NextSeq: s.nextSeq,
		Lost:    lost,
	}
	s.mu.Unlock()
	s.cond.Broadcast()
	if wasDetached {
		e.attached.Add(1)
	}
	e.resumes.Add(1)
	e.replayed.Add(int64(replayed))
	e.resumeLost.Add(int64(lost))
	e.enqueueReady(s)
	return welcome, nil
}

// subscribe registers one session subscription: it enters the per-edge
// table and widens the aggregated upstream subscriber when it falls outside
// the current bounding cuboid.
func (e *Edge) subscribe(token uint64, sub *core.Subscription) (core.SubscriptionID, error) {
	if sub == nil {
		return 0, errors.New("edge: nil subscription")
	}
	if err := sub.Validate(e.cfg.Space); err != nil {
		return 0, err
	}
	e.mu.RLock()
	s, ok := e.sessions[token]
	if !ok || e.closed {
		e.mu.RUnlock()
		return 0, fmt.Errorf("edge: unknown session token %d", token)
	}
	e.mu.RUnlock()

	// Widen the upstream aggregate BEFORE exposing the subscription: once
	// the sub-ack returns, matching publications are guaranteed to reach
	// this edge.
	if err := e.widen(sub.Predicates); err != nil {
		return 0, err
	}

	e.mu.Lock()
	e.nextSub++
	id := core.SubscriptionID(uint64(e.cfg.ID)<<40 | e.nextSub)
	stored := core.NewSubscription(core.SubscriberID(token), sub.Predicates)
	stored.ID = id
	e.idx.Add(stored)
	e.mu.Unlock()
	s.mu.Lock()
	if s.closed {
		// The session closed (or expired) while registering: its
		// subscriptions were already torn down, so this one must not
		// survive it in the table.
		s.mu.Unlock()
		e.mu.Lock()
		e.idx.Remove(id)
		e.mu.Unlock()
		return 0, fmt.Errorf("edge: unknown session token %d", token)
	}
	s.subs[id] = struct{}{}
	s.mu.Unlock()
	return id, nil
}

// unsubscribe removes one session subscription from the table. The upstream
// aggregate is widening-only: it is not narrowed here, so the edge may keep
// receiving (and discarding) traffic no local session wants until it
// re-registers — the same trade SIENA-style aggregation makes.
func (e *Edge) unsubscribe(token uint64, id core.SubscriptionID) {
	e.mu.Lock()
	s, ok := e.sessions[token]
	if ok {
		e.idx.Remove(id)
	}
	e.mu.Unlock()
	if ok {
		s.mu.Lock()
		delete(s.subs, id)
		s.mu.Unlock()
	}
}

// widen grows the aggregated upstream subscription to cover preds,
// registering the new bounding cuboid before dropping the old one so there
// is no coverage gap.
func (e *Edge) widen(preds []core.Range) error {
	e.aggMu.Lock()
	defer e.aggMu.Unlock()
	if e.agg != nil {
		covered := true
		for i, p := range preds {
			if p.Low < e.agg[i].Low || p.High > e.agg[i].High {
				covered = false
				break
			}
		}
		if covered {
			return nil
		}
	}
	next := make([]core.Range, len(preds))
	copy(next, preds)
	if e.agg != nil {
		for i := range next {
			if e.agg[i].Low < next[i].Low {
				next[i].Low = e.agg[i].Low
			}
			if e.agg[i].High > next[i].High {
				next[i].High = e.agg[i].High
			}
		}
	}
	agg := core.NewSubscription(core.SubscriberID(subscriberBit|uint64(e.cfg.ID)), next)
	body := (&wire.SubscribeBody{Sub: agg, DeliverAddr: e.listenAddr}).Encode()
	resp, err := e.cfg.Transport.Request(e.cfg.DispatcherAddr,
		&wire.Envelope{Kind: wire.KindSubscribe, From: e.cfg.ID, Body: body}, e.cfg.RequestTimeout)
	if err != nil {
		return fmt.Errorf("edge: upstream subscribe: %w", err)
	}
	if resp.Kind != wire.KindSubscribeAck {
		if eb, derr := wire.DecodeError(resp.Body); derr == nil {
			return fmt.Errorf("edge: upstream subscribe rejected: %s", eb.Text)
		}
		return fmt.Errorf("edge: unexpected upstream response %v", resp.Kind)
	}
	ack, err := wire.DecodeSubscribeAck(resp.Body)
	if err != nil {
		return err
	}
	old := e.upstreamID
	e.upstreamID, e.agg = ack.ID, next
	if old != 0 {
		// Replaced cuboid: drop the narrower registration. Best-effort —
		// a stale extra registration only costs duplicate deliveries,
		// which local re-matching and client dedup absorb.
		ub := (&wire.UnsubscribeBody{ID: old}).Encode()
		_ = e.cfg.Transport.Send(e.cfg.DispatcherAddr,
			&wire.Envelope{Kind: wire.KindUnsubscribe, From: e.cfg.ID, Body: ub})
	}
	return nil
}

// ack advances a session's cumulative ack, freeing ring space (and with it
// the flight window that gates flushing).
func (e *Edge) ack(token uint64, seq uint64) {
	e.mu.RLock()
	s, ok := e.sessions[token]
	e.mu.RUnlock()
	if !ok {
		return
	}
	s.mu.Lock()
	if seq > s.acked {
		s.acked = seq
		e.trimAckedLocked(s)
	}
	flushable := e.flushableLocked(s)
	s.mu.Unlock()
	s.cond.Broadcast()
	if flushable {
		e.enqueueReady(s)
	}
}

// trimAckedLocked drops acked entries from the front of the ring. Caller
// holds s.mu.
func (e *Edge) trimAckedLocked(s *session) {
	i := 0
	for i < len(s.ring) && s.ring[i].seq <= s.acked {
		s.ringBytes -= s.ring[i].size
		e.bufferedBytes.Add(-int64(s.ring[i].size))
		i++
	}
	s.ring = dropFront(s.ring, i)
}

// Detach simulates a connection loss for the session with the given token
// (chaos/bench hook): buffered deliveries move to the resume ring and the
// session stops being flushed until it resumes.
func (e *Edge) Detach(token uint64) bool {
	e.mu.RLock()
	s, ok := e.sessions[token]
	e.mu.RUnlock()
	if !ok {
		return false
	}
	e.detach(s)
	return true
}

func (e *Edge) detach(s *session) {
	s.mu.Lock()
	if s.detached || s.closed {
		s.mu.Unlock()
		return
	}
	s.detached = true
	s.detachedAt = e.cfg.Now()
	// Unsent backlog joins the resume ring: it is exactly the "missed while
	// away" set a resume replays.
	s.ring = append(s.ring, s.pending...)
	s.ringBytes += s.pendingBytes
	s.pending = nil
	s.pendingBytes = 0
	e.trimRingLocked(s)
	s.mu.Unlock()
	s.cond.Broadcast()
	e.attached.Add(-1)
}

// trimRingLocked enforces the ResumeWindow bound. Only called while the
// session is detached (on detach and on detached fan-in): while attached the
// flight window stops flushing at ResumeWindow entries instead, so nothing
// sent-but-unacked is ever evicted. Caller holds s.mu.
func (e *Edge) trimRingLocked(s *session) {
	n := len(s.ring) - e.cfg.ResumeWindow
	if n <= 0 {
		return
	}
	for _, old := range s.ring[:n] {
		e.bufferedBytes.Add(-int64(old.size))
		s.ringBytes -= old.size
	}
	s.ring = dropFront(s.ring, n)
	e.ringEvicted.Add(int64(n))
}

// CloseSession ends a session for good (the KindSessionClose path): its
// buffers, resume ring and subscriptions are freed and the token can no
// longer be resumed. Reports whether a live session was closed.
func (e *Edge) CloseSession(token uint64) bool { return e.closeSession(token, false, 0) }

// closeSession tears one session down. With expireOnly set the close only
// proceeds if the session is detached and has been since expireBefore or
// earlier — the expiry path, re-checked under the session lock so a
// concurrent resume wins the race.
func (e *Edge) closeSession(token uint64, expireOnly bool, expireBefore int64) bool {
	e.mu.RLock()
	s, ok := e.sessions[token]
	e.mu.RUnlock()
	if !ok {
		return false
	}
	s.mu.Lock()
	if s.closed || (expireOnly && (!s.detached || s.detachedAt > expireBefore)) {
		s.mu.Unlock()
		return false
	}
	s.closed = true
	wasAttached := !s.detached
	freed := s.pendingBytes + s.ringBytes
	ids := make([]core.SubscriptionID, 0, len(s.subs))
	for id := range s.subs {
		ids = append(ids, id)
	}
	s.pending, s.pendingBytes = nil, 0
	s.ring, s.ringBytes = nil, 0
	s.mu.Unlock()
	s.cond.Broadcast() // free any backpressure waiter
	e.mu.Lock()
	delete(e.sessions, token)
	for _, id := range ids {
		e.idx.Remove(id)
	}
	e.mu.Unlock()
	e.bufferedBytes.Add(-int64(freed))
	if wasAttached {
		e.attached.Add(-1)
	}
	return true
}

// janitor periodically expires sessions that stayed detached longer than
// SessionRetention, so abandoned tokens do not pin their rings and
// subscriptions forever.
func (e *Edge) janitor() {
	defer e.wg.Done()
	interval := e.cfg.SessionRetention / 4
	if interval < 10*time.Millisecond {
		interval = 10 * time.Millisecond
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case <-e.stop:
			return
		case <-ticker.C:
			e.sweepExpired(e.cfg.Now())
		}
	}
}

// sweepExpired closes every session detached since before now-SessionRetention
// and returns how many it reaped.
func (e *Edge) sweepExpired(now int64) int {
	cutoff := now - int64(e.cfg.SessionRetention)
	e.mu.Lock()
	var expired []uint64
	for tok, s := range e.sessions {
		s.mu.Lock()
		if s.detached && !s.closed && s.detachedAt <= cutoff {
			expired = append(expired, tok)
		}
		s.mu.Unlock()
	}
	e.mu.Unlock()
	n := 0
	for _, tok := range expired {
		if e.closeSession(tok, true, cutoff) {
			e.sessionsExpired.Add(1)
			n++
		}
	}
	return n
}

// fanOutMsg re-matches one upstream publication against the per-edge table
// and appends a delivery to every matching session's buffer. The publication
// is encoded once; each session's frame copies those bytes. Sessions it makes
// ready reach the flush pool in one hand-off.
func (e *Edge) fanOutMsg(msg *core.Message) {
	if msg == nil || len(msg.Attrs) != e.cfg.Space.K() {
		return
	}
	e.fanIn.Add(1)
	type target struct {
		s   *session
		ids []core.SubscriptionID
	}
	var targets []target
	var ids []core.SubscriptionID
	e.fanMu.Lock()
	e.mu.RLock()
	if e.closed {
		e.mu.RUnlock()
		e.fanMu.Unlock()
		return
	}
	e.hits, _ = e.idx.MatchHits(msg, e.hits[:0])
	for _, h := range e.hits {
		tok := uint64(h.Subscriber)
		i, ok := e.perSess[tok]
		if !ok {
			s := e.sessions[tok]
			if s == nil {
				continue
			}
			if targets == nil {
				targets = make([]target, 0, len(e.hits))
				ids = make([]core.SubscriptionID, 0, len(e.hits))
			}
			e.perSess[tok] = len(targets)
			// Each session's list starts as a full-capacity window onto the
			// shared one, so the common one-match session costs no
			// allocation and a second match copies instead of overwriting
			// the next session's.
			ids = append(ids, h.ID)
			targets = append(targets, target{s: s, ids: ids[len(ids)-1 : len(ids) : len(ids)]})
			continue
		}
		targets[i].ids = append(targets[i].ids, h.ID)
	}
	clear(e.perSess)
	e.mu.RUnlock()
	e.fanMu.Unlock()
	if len(targets) == 0 {
		return
	}
	enc := wire.AppendMessage(nil, msg)
	ready := make([]*session, 0, len(targets))
	appended := 0
	for _, t := range targets {
		ok, isReady := e.append(t.s, enc, t.ids, &ready)
		if ok {
			appended++
		}
		if isReady {
			ready = append(ready, t.s)
		}
	}
	e.ready.Push(ready...)
	e.fanOut.Add(int64(appended))
	e.arrival.Mark(e.cfg.Now(), int64(appended))
}

// append applies the slow-consumer policy and enqueues one delivery of msg
// (a publication encoded by wire.AppendMessage) on a session, stamping its
// sequence. It reports whether the delivery was enqueued and whether the
// session just became ready, in which case the caller hands it to the flush
// pool. Under PolicyBackpressure a full buffer blocks the caller (the fan-in
// path) until the consumer acks — that stall is the backpressure, propagating
// upstream like a full TCP window. Before stalling it hands over the sessions
// in ready, which this publication already made ready, so their consumers
// never wait on this one's.
func (e *Edge) append(s *session, msg []byte, ids []core.SubscriptionID, ready *[]*session) (ok, isReady bool) {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return false, false
	}
	// The sequence must be assigned under the lock; encode with the next
	// sequence, which also gives the size the policy checks.
	body := wire.EncodeEdgeDeliver(s.nextSeq, msg, ids)
	size := len(body)
	if !s.detached {
		switch e.cfg.Policy {
		case PolicyBackpressure:
			for !s.detached && !s.closed && s.pendingBytes+size > e.cfg.BufferBytes && s.pendingBytes > 0 {
				if len(*ready) > 0 {
					s.mu.Unlock()
					e.ready.Push(*ready...)
					*ready = (*ready)[:0]
					s.mu.Lock()
					continue
				}
				e.backpressureWaits.Add(1)
				s.cond.Wait()
			}
		case PolicyDropOldest:
			n := 0
			for ; s.pendingBytes+size > e.cfg.BufferBytes && n < len(s.pending); n++ {
				s.pendingBytes -= s.pending[n].size
				e.bufferedBytes.Add(-int64(s.pending[n].size))
			}
			s.pending = dropFront(s.pending, n)
			e.droppedOldest.Add(int64(n))
		case PolicyDisconnect:
			if s.pendingBytes+size > e.cfg.BufferBytes && s.pendingBytes > 0 {
				s.mu.Unlock()
				e.slowDisconnects.Add(1)
				e.detach(s)
				s.mu.Lock()
			}
		}
	}
	// The session may have closed while this goroutine waited above (edge
	// stop, a session-close frame, retention expiry): its buffers are gone,
	// so the delivery must not be accounted against them.
	if s.closed {
		s.mu.Unlock()
		return false, false
	}
	ent := entry{seq: s.nextSeq, size: size, body: body}
	s.nextSeq++
	e.bufferedBytes.Add(int64(size))
	if s.detached {
		// No consumer: straight to the resume ring.
		s.ring = append(s.ring, ent)
		s.ringBytes += size
		e.trimRingLocked(s)
	} else {
		s.pending = append(s.pending, ent)
		s.pendingBytes += size
		if !s.queued && e.flushableLocked(s) {
			s.queued, isReady = true, true
		}
	}
	s.mu.Unlock()
	return true, isReady
}

// flushableLocked reports whether a flush worker has work for s: attached,
// backlog present, flight window open. Caller holds s.mu.
func (e *Edge) flushableLocked(s *session) bool {
	return len(s.pending) > 0 && e.windowOpenLocked(s)
}

// windowOpenLocked reports whether s is attached with its flight window
// open. The window is bounded both in bytes (BufferBytes) and in entries
// (ResumeWindow) — without the entry bound, deliveries smaller than
// BufferBytes/ResumeWindow would never close it and a consumer that stopped
// acking would keep being sent to forever. Caller holds s.mu.
func (e *Edge) windowOpenLocked(s *session) bool {
	return !s.detached && !s.closed &&
		s.ringBytes < e.cfg.BufferBytes && len(s.ring) < e.cfg.ResumeWindow
}

// enqueueReady marks a session ready for the worker pool (at most one
// pending readiness entry per session).
func (e *Edge) enqueueReady(s *session) {
	s.mu.Lock()
	if s.queued || !e.flushableLocked(s) {
		s.mu.Unlock()
		return
	}
	s.queued = true
	s.mu.Unlock()
	e.ready.Push(s)
}

// flushWorker drains the ready queue a batch of sessions at a time, reusing
// its batch and entry buffers, and reads the clock once per batch.
func (e *Edge) flushWorker() {
	defer e.wg.Done()
	var batch []*session
	var ents []entry
	for {
		var ok bool
		if batch, ok = e.ready.Take(batch, e.cfg.FlushWorkers); !ok {
			return
		}
		sent := 0
		for _, s := range batch {
			var n int
			ents, n = e.flush(s, ents)
			sent += n
		}
		if sent > 0 {
			e.sent.Add(int64(sent))
			e.service.Mark(e.cfg.Now(), int64(sent))
		}
	}
}

// flush drains one ready session: every pending entry the flight window
// admits moves to the ring (sent, awaiting ack) under one lock, then the
// frames go out; this repeats until the window admits nothing. The session
// stays queued while its frames are out of the lock, so no other worker can
// send a later entry ahead of them. On a send failure the session detaches:
// entries already moved to the ring are replayed on resume with the rest of
// its buffered traffic. ents is scratch space, returned for reuse with the
// number of frames sent.
func (e *Edge) flush(s *session, ents []entry) ([]entry, int) {
	sent := 0
	for {
		s.mu.Lock()
		n := 0
		for ; n < len(s.pending) && e.windowOpenLocked(s); n++ {
			ent := s.pending[n]
			s.pendingBytes -= ent.size
			s.ring = append(s.ring, ent)
			s.ringBytes += ent.size
			ents = append(ents, ent)
		}
		if n == 0 {
			s.queued = false
			s.mu.Unlock()
			return ents, sent
		}
		s.pending = dropFront(s.pending, n)
		addr, sink := s.addr, s.sink
		s.mu.Unlock()
		s.cond.Broadcast() // pending shrank: wake backpressure waiters

		for _, ent := range ents {
			env := &wire.Envelope{Kind: wire.KindEdgeDeliver, From: e.cfg.ID, Body: ent.body}
			if sink != nil {
				sink(env)
			} else if err := e.cfg.Transport.Send(addr, env); err != nil {
				e.sendFailures.Add(1)
				s.mu.Lock()
				s.queued = false
				s.mu.Unlock()
				e.detach(s)
				clear(ents)
				return ents[:0], sent
			}
			sent++
		}
		clear(ents)
		ents = ents[:0]
	}
}
