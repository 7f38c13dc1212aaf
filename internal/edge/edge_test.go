package edge

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// fakeDispatcher is an upstream stub: it acks subscribes, records the
// aggregated predicates the edge registers, and can push publications to the
// edge's deliver address.
type fakeDispatcher struct {
	mu     sync.Mutex
	nextID uint64
	subs   map[core.SubscriptionID]*core.Subscription
	unsubs []core.SubscriptionID
}

func (d *fakeDispatcher) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindSubscribe:
		b, err := wire.DecodeSubscribe(env.Body)
		if err != nil {
			return &wire.Envelope{Kind: wire.KindError, Body: (&wire.ErrorBody{Text: err.Error()}).Encode()}
		}
		d.mu.Lock()
		d.nextID++
		id := core.SubscriptionID(d.nextID)
		d.subs[id] = b.Sub
		d.mu.Unlock()
		return &wire.Envelope{Kind: wire.KindSubscribeAck, Body: (&wire.SubscribeAckBody{ID: id}).Encode()}
	case wire.KindUnsubscribe:
		if b, err := wire.DecodeUnsubscribe(env.Body); err == nil {
			d.mu.Lock()
			delete(d.subs, b.ID)
			d.unsubs = append(d.unsubs, b.ID)
			d.mu.Unlock()
		}
	}
	return nil
}

func (d *fakeDispatcher) active() []*core.Subscription {
	d.mu.Lock()
	defer d.mu.Unlock()
	out := make([]*core.Subscription, 0, len(d.subs))
	for _, s := range d.subs {
		out = append(out, s)
	}
	return out
}

type edgeRig struct {
	mesh *transport.Mesh
	disp *fakeDispatcher
	edge *Edge
}

func newRig(t testing.TB, mut func(*Config)) *edgeRig {
	t.Helper()
	mesh := transport.NewMesh(0)
	disp := &fakeDispatcher{subs: make(map[core.SubscriptionID]*core.Subscription)}
	if _, err := mesh.Endpoint("disp").Listen("disp", disp.handle); err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		ID:             9,
		Addr:           "edge",
		Space:          core.UniformSpace(2, 100),
		Transport:      mesh.Endpoint("edge"),
		DispatcherAddr: "disp",
		BufferBytes:    1 << 20,
		ResumeWindow:   64,
	}
	if mut != nil {
		mut(&cfg)
	}
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Stop(); mesh.Close() })
	return &edgeRig{mesh: mesh, disp: disp, edge: e}
}

// sinkSession is a local consumer capturing decoded EdgeDeliver frames.
type sinkSession struct {
	mu     sync.Mutex
	frames []*wire.EdgeDeliverBody
}

func (c *sinkSession) sink(env *wire.Envelope) {
	b, err := wire.DecodeEdgeDeliver(env.Body)
	if err != nil {
		panic(err)
	}
	c.mu.Lock()
	c.frames = append(c.frames, b)
	c.mu.Unlock()
}

func (c *sinkSession) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.frames)
}

func (c *sinkSession) lastSeq() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if len(c.frames) == 0 {
		return 0
	}
	return c.frames[len(c.frames)-1].Seq
}

func (c *sinkSession) msgIDs() []core.MessageID {
	c.mu.Lock()
	defer c.mu.Unlock()
	ids := make([]core.MessageID, len(c.frames))
	for i, f := range c.frames {
		ids[i] = f.Msg.ID
	}
	return ids
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timeout waiting for %s", what)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func attach(t *testing.T, e *Edge, c *sinkSession) uint64 {
	t.Helper()
	w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: 1}, c.sink)
	if err != nil {
		t.Fatal(err)
	}
	if w.Token == 0 {
		t.Fatal("welcome without token")
	}
	return w.Token
}

// attachFast attaches a full-space consumer that acks every frame as it
// arrives: the well-behaved neighbour a slow session must not harm.
func attachFast(t *testing.T, e *Edge) *sinkSession {
	t.Helper()
	c := &sinkSession{}
	var tok atomic.Uint64
	w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: 2}, func(env *wire.Envelope) {
		c.sink(env)
		e.ack(tok.Load(), c.lastSeq())
	})
	if err != nil {
		t.Fatal(err)
	}
	tok.Store(w.Token)
	subscribe(t, e, w.Token, 0, 100)
	return c
}

// pubPaced publishes messages 1..total at the fast consumer's pace, so only
// the session that withholds acks can overflow.
func pubPaced(t *testing.T, e *Edge, fast *sinkSession, total int) {
	t.Helper()
	for i := 1; i <= total; i++ {
		pub(e, core.MessageID(i), 50, 50)
		for deadline := time.Now().Add(5 * time.Second); fast.count() < i; runtime.Gosched() {
			if time.Now().After(deadline) {
				t.Fatalf("fast session stalled at %d/%d", fast.count(), i)
			}
		}
	}
}

// wantAll fails unless c saw messages 1..total exactly once, in order.
func wantAll(t *testing.T, c *sinkSession, total int) {
	t.Helper()
	ids := c.msgIDs()
	if len(ids) != total {
		t.Fatalf("fast session saw %d deliveries, want %d", len(ids), total)
	}
	for i, id := range ids {
		if id != core.MessageID(i+1) {
			t.Fatalf("fast session frame %d carries msg %d: loss or reorder beside a slow session", i, id)
		}
	}
}

func subscribe(t *testing.T, e *Edge, token uint64, lo, hi float64) core.SubscriptionID {
	t.Helper()
	sub := core.NewSubscription(0, []core.Range{{Low: lo, High: hi}, {Low: 0, High: 100}})
	id, err := e.subscribe(token, sub)
	if err != nil {
		t.Fatal(err)
	}
	return id
}

func pub(e *Edge, id core.MessageID, attrs ...float64) {
	m := core.NewMessage(attrs, []byte("p"))
	m.ID = id
	e.fanOutMsg(m)
}

func TestEdgeFanOutMatchesSessions(t *testing.T) {
	r := newRig(t, nil)
	a, b := &sinkSession{}, &sinkSession{}
	ta := attach(t, r.edge, a)
	tb := attach(t, r.edge, b)
	subscribe(t, r.edge, ta, 0, 50)
	idB := subscribe(t, r.edge, tb, 40, 100)

	pub(r.edge, 1, 10, 5) // only A
	pub(r.edge, 2, 45, 5) // both
	pub(r.edge, 3, 90, 5) // only B
	waitFor(t, "A=2 B=2 deliveries", func() bool { return a.count() == 2 && b.count() == 2 })
	if ids := a.msgIDs(); ids[0] != 1 || ids[1] != 2 {
		t.Fatalf("A got %v, want [1 2]", ids)
	}
	if ids := b.msgIDs(); ids[0] != 2 || ids[1] != 3 {
		t.Fatalf("B got %v, want [2 3]", ids)
	}
	// Delivery frames carry the matching local subscription IDs.
	b.mu.Lock()
	subIDs := b.frames[0].SubIDs
	b.mu.Unlock()
	if len(subIDs) != 1 || subIDs[0] != idB {
		t.Fatalf("B sub ids %v, want [%d]", subIDs, idB)
	}
	// Sequences are per-session and contiguous from 1.
	if a.frames[0].Seq != 1 || a.frames[1].Seq != 2 {
		t.Fatalf("A seqs %d,%d want 1,2", a.frames[0].Seq, a.frames[1].Seq)
	}
	if r.edge.Sessions() != 2 {
		t.Fatalf("sessions = %d, want 2", r.edge.Sessions())
	}
}

func TestEdgeUnsubscribeStopsDelivery(t *testing.T) {
	r := newRig(t, nil)
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	id := subscribe(t, r.edge, tok, 0, 100)
	pub(r.edge, 1, 50, 50)
	waitFor(t, "first delivery", func() bool { return c.count() == 1 })
	r.edge.unsubscribe(tok, id)
	pub(r.edge, 2, 50, 50)
	time.Sleep(20 * time.Millisecond)
	if c.count() != 1 {
		t.Fatalf("delivered after unsubscribe: %d frames", c.count())
	}
}

// TestEdgeAggregateWidens: the upstream registration is the bounding cuboid
// of local predicates, re-registered (new before old is dropped) only when a
// subscription falls outside it.
func TestEdgeAggregateWidens(t *testing.T) {
	r := newRig(t, nil)
	c := &sinkSession{}
	tok := attach(t, r.edge, c)

	subscribe(t, r.edge, tok, 20, 30)
	active := r.disp.active()
	if len(active) != 1 {
		t.Fatalf("%d upstream subs, want 1", len(active))
	}
	if p := active[0].Predicates[0]; p.Low != 20 || p.High != 30 {
		t.Fatalf("aggregate dim0 = %+v, want [20,30)", p)
	}

	// Covered subscription: no upstream traffic.
	subscribe(t, r.edge, tok, 22, 28)
	if n := len(r.disp.active()); n != 1 {
		t.Fatalf("covered sub re-registered upstream: %d subs", n)
	}

	// Widening subscription: one replacement registration, old one dropped
	// (the drop is a one-way frame; wait for it to land).
	subscribe(t, r.edge, tok, 50, 60)
	waitFor(t, "replaced cuboid unsubscribed", func() bool { return len(r.disp.active()) == 1 })
	active = r.disp.active()
	if p := active[0].Predicates[0]; p.Low != 20 || p.High != 60 {
		t.Fatalf("widened aggregate dim0 = %+v, want [20,60)", p)
	}
	r.disp.mu.Lock()
	unsubs := len(r.disp.unsubs)
	r.disp.mu.Unlock()
	if unsubs != 1 {
		t.Fatalf("%d upstream unsubs, want 1 (the replaced cuboid)", unsubs)
	}
}

// TestEdgeBackpressurePolicy: with acks withheld, fan-in fills the flight
// window and then the pending buffer, and the publisher-side call blocks
// instead of dropping; acking drains everything.
func TestEdgeBackpressurePolicy(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = PolicyBackpressure
		c.BufferBytes = 256 // a few frames per window
		c.ResumeWindow = 1 << 20
	})
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)

	const total = 200
	done := make(chan struct{})
	go func() {
		for i := 1; i <= total; i++ {
			pub(r.edge, core.MessageID(i), 50, 50)
		}
		close(done)
	}()
	// The publisher must stall: without acks at most
	// flight window + pending buffer fits.
	select {
	case <-done:
		t.Fatal("publisher never blocked under backpressure")
	case <-time.After(100 * time.Millisecond):
	}
	if r.edge.BackpressureWaits() == 0 {
		t.Fatal("no backpressure waits counted")
	}
	// Ack everything seen, repeatedly, until the publisher finishes.
	for {
		r.edge.ack(tok, c.lastSeq())
		select {
		case <-done:
			r.edge.ack(tok, c.lastSeq())
			waitFor(t, "all frames delivered", func() bool { return c.count() == total })
			ids := c.msgIDs()
			for i, id := range ids {
				if id != core.MessageID(i+1) {
					t.Fatalf("frame %d carries msg %d: loss or reorder", i, id)
				}
			}
			if r.edge.DroppedOldest() != 0 || r.edge.SlowDisconnects() != 0 {
				t.Fatal("backpressure policy dropped or disconnected")
			}
			return
		case <-time.After(2 * time.Millisecond):
		}
	}
}

// TestEdgeDropOldestPolicy: a consumer that never acks keeps only the newest
// window; drops are counted and the tail is intact.
func TestEdgeDropOldestPolicy(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = PolicyDropOldest
		c.BufferBytes = 512
	})
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)
	fast := attachFast(t, r.edge)
	const total = 300
	pubPaced(t, r.edge, fast, total)
	waitFor(t, "drops under drop-oldest", func() bool { return r.edge.DroppedOldest() > 0 })
	// Quiesce, then ack what arrived so the remainder flushes.
	waitFor(t, "buffer drained", func() bool {
		r.edge.ack(tok, c.lastSeq())
		return int64(c.count())+r.edge.DroppedOldest() >= total
	})
	ids := c.msgIDs()
	// Delivered message IDs must be strictly increasing (staleness is
	// bounded by eviction: only older traffic goes missing).
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatalf("out-of-order delivery %d after %d", ids[i], ids[i-1])
		}
	}
	if ids[len(ids)-1] != total {
		t.Fatalf("newest message %d lost under drop-oldest, want %d", ids[len(ids)-1], total)
	}
	// The slow tail ends at the head sequence, and the stale gap behind it
	// is exactly the evicted deliveries.
	if c.lastSeq() != total {
		t.Fatalf("slow consumer ends at seq %d, want head %d", c.lastSeq(), total)
	}
	if gap := int64(total - len(ids)); gap == 0 || gap != r.edge.DroppedOldest() {
		t.Fatalf("stale gap %d, evictions %d: want equal and non-zero", gap, r.edge.DroppedOldest())
	}
	wantAll(t, fast, total)
	if r.edge.BackpressureWaits() != 0 {
		t.Fatal("drop-oldest policy blocked")
	}
}

// TestEdgeDisconnectPolicy: overflow detaches the session (counted), and the
// session can resume afterwards.
func TestEdgeDisconnectPolicy(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = PolicyDisconnect
		c.BufferBytes = 512
		c.ResumeWindow = 16
	})
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)
	fast := attachFast(t, r.edge)
	pubPaced(t, r.edge, fast, 300)
	if r.edge.SlowDisconnects() != 1 {
		t.Fatalf("slow disconnects = %d, want 1", r.edge.SlowDisconnects())
	}
	if r.edge.Sessions() != 1 {
		t.Fatalf("sessions = %d after disconnect, want 1 (the fast neighbour)", r.edge.Sessions())
	}
	// Resume picks up the newest ResumeWindow deliveries.
	c2 := &sinkSession{}
	w, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: tok, LastSeq: c.lastSeq()}, c2.sink)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Resumed {
		t.Fatal("welcome not marked resumed")
	}
	waitFor(t, "replayed tail", func() bool {
		r.edge.ack(tok, c2.lastSeq())
		return c2.count() >= 16
	})
	ids := c2.msgIDs()
	if ids[len(ids)-1] != 300 {
		t.Fatalf("resume tail ends at %d, want 300", ids[len(ids)-1])
	}
	// Nothing vanishes undeclared: seen before the detach + replayed +
	// reported lost covers every matching publication.
	if got := uint64(c.count()+c2.count()) + w.Lost; got != 300 {
		t.Fatalf("%d delivered + %d replayed + %d declared lost = %d, want 300",
			c.count(), c2.count(), w.Lost, got)
	}
	wantAll(t, fast, 300)
}

// TestEdgeResumeReplaysWindow: a detached session misses nothing that fits
// in the resume window, and Lost reports exactly what aged out.
func TestEdgeResumeReplaysWindow(t *testing.T) {
	r := newRig(t, func(c *Config) { c.ResumeWindow = 10 })
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)

	pub(r.edge, 1, 50, 50)
	pub(r.edge, 2, 50, 50)
	waitFor(t, "live deliveries", func() bool { return c.count() == 2 })
	r.edge.ack(tok, c.lastSeq())
	if !r.edge.Detach(tok) {
		t.Fatal("detach failed")
	}

	// Within the window: 8 missed publications, all retained.
	for i := 3; i <= 10; i++ {
		pub(r.edge, core.MessageID(i), 50, 50)
	}
	c2 := &sinkSession{}
	w, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: tok, LastSeq: 2}, c2.sink)
	if err != nil {
		t.Fatal(err)
	}
	if !w.Resumed || w.Lost != 0 {
		t.Fatalf("welcome %+v, want resumed with 0 lost", w)
	}
	waitFor(t, "replay of 8", func() bool { return c2.count() == 8 })
	for i, id := range c2.msgIDs() {
		if id != core.MessageID(i+3) {
			t.Fatalf("replay frame %d carries msg %d, want %d", i, id, i+3)
		}
	}
	if r.edge.Replayed() != 8 {
		t.Fatalf("replayed = %d, want 8", r.edge.Replayed())
	}

	// Beyond the window: only the newest 10 survive, Lost counts the rest.
	r.edge.ack(tok, c2.lastSeq())
	r.edge.Detach(tok)
	for i := 11; i <= 40; i++ {
		pub(r.edge, core.MessageID(i), 50, 50)
	}
	c3 := &sinkSession{}
	w, err = r.edge.AttachLocal(&wire.SessionHelloBody{Token: tok, LastSeq: c2.lastSeq()}, c3.sink)
	if err != nil {
		t.Fatal(err)
	}
	if w.Lost != 20 { // 30 missed, window keeps 10
		t.Fatalf("lost = %d, want 20", w.Lost)
	}
	waitFor(t, "windowed replay", func() bool { return c3.count() == 10 })
	if ids := c3.msgIDs(); ids[0] != 31 || ids[9] != 40 {
		t.Fatalf("windowed replay %v, want msgs 31..40", ids)
	}
}

// TestEdgeResumeAfterAckedOverlap: resuming with a LastSeq older than what
// was acked re-delivers nothing already confirmed — the ring was trimmed at
// ack time, and the overlap shows up as Lost, to be absorbed by client dedup.
func TestEdgeResumeUnknownToken(t *testing.T) {
	r := newRig(t, nil)
	_, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: 999}, (&sinkSession{}).sink)
	if err == nil {
		t.Fatal("resume of unknown token accepted")
	}
}

func TestEdgeSessionValidation(t *testing.T) {
	r := newRig(t, nil)
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	// Wrong dimensionality is rejected.
	if _, err := r.edge.subscribe(tok, core.NewSubscription(0, []core.Range{{Low: 0, High: 1}})); err == nil {
		t.Fatal("1-dim subscription accepted in 2-dim space")
	}
	// Unknown session token is rejected.
	sub := core.NewSubscription(0, []core.Range{{Low: 0, High: 1}, {Low: 0, High: 1}})
	if _, err := r.edge.subscribe(12345, sub); err == nil {
		t.Fatal("subscribe on unknown token accepted")
	}
}

// TestEdgeHandleFrames drives the same flows through wire frames, as a
// transport-attached session would.
func TestEdgeHandleFrames(t *testing.T) {
	r := newRig(t, nil)
	// A mesh endpoint for the client side.
	var mu sync.Mutex
	var got []*wire.EdgeDeliverBody
	cl := r.mesh.Endpoint("client")
	if _, err := cl.Listen("client", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind == wire.KindEdgeDeliver {
			if b, err := wire.DecodeEdgeDeliver(env.Body); err == nil {
				mu.Lock()
				got = append(got, b)
				mu.Unlock()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}

	hello := &wire.SessionHelloBody{Subscriber: 7, DeliverAddr: "client"}
	resp, err := cl.Request("edge", &wire.Envelope{Kind: wire.KindSessionHello, Body: hello.Encode()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wire.DecodeSessionWelcome(resp.Body)
	if err != nil || w.Err != "" {
		t.Fatalf("welcome %+v err %v", w, err)
	}

	sub := core.NewSubscription(0, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	sb := &wire.SessionSubBody{Token: w.Token, Sub: sub}
	resp, err = cl.Request("edge", &wire.Envelope{Kind: wire.KindSessionSub, Body: sb.Encode()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	ack, err := wire.DecodeSessionSubAck(resp.Body)
	if err != nil || ack.Err != "" {
		t.Fatalf("sub ack %+v err %v", ack, err)
	}

	pub(r.edge, 42, 50, 50)
	waitFor(t, "frame delivery", func() bool { mu.Lock(); defer mu.Unlock(); return len(got) == 1 })
	mu.Lock()
	if got[0].Msg.ID != 42 || got[0].Seq != 1 {
		t.Fatalf("frame %+v, want msg 42 seq 1", got[0])
	}
	mu.Unlock()

	// Ack via frame, then unsub via frame.
	if err := cl.Send("edge", &wire.Envelope{Kind: wire.KindSessionAck,
		Body: (&wire.SessionAckBody{Token: w.Token, Seq: 1}).Encode()}); err != nil {
		t.Fatal(err)
	}
	if err := cl.Send("edge", &wire.Envelope{Kind: wire.KindSessionUnsub,
		Body: (&wire.SessionUnsubBody{Token: w.Token, ID: ack.ID}).Encode()}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, "unsub applied", func() bool {
		r.edge.mu.Lock()
		defer r.edge.mu.Unlock()
		return r.edge.idx.Len() == 0
	})
}

// TestEdgeManySessions exercises the readiness loop with a few thousand
// sessions on one edge: every session gets every matching message, with no
// per-session goroutines.
func TestEdgeManySessions(t *testing.T) {
	const sessions = 2000
	r := newRig(t, func(c *Config) { c.FlushWorkers = 8 })
	sinks := make([]*sinkSession, sessions)
	toks := make([]uint64, sessions)
	for i := range sinks {
		sinks[i] = &sinkSession{}
		toks[i] = attach(t, r.edge, sinks[i])
		subscribe(t, r.edge, toks[i], 0, 100)
	}
	const msgs = 10
	for m := 1; m <= msgs; m++ {
		pub(r.edge, core.MessageID(m), 50, 50)
	}
	waitFor(t, fmt.Sprintf("%d sessions x %d msgs", sessions, msgs), func() bool {
		for _, s := range sinks {
			if s.count() != msgs {
				return false
			}
		}
		return true
	})
	if got := r.edge.FanOut(); got != sessions*msgs {
		t.Fatalf("fan-out = %d, want %d", got, sessions*msgs)
	}
}

// TestEdgeBackpressureAcksNotStarvedOnTransport is the full-wire regression
// for the fan-in staging queue: on a transport that drains one-way frames
// per address with a single goroutine, a backpressured session must not
// block that goroutine, or the SessionAck frames queued behind the stalled
// delivery would never be processed and the whole edge would deadlock.
func TestEdgeBackpressureAcksNotStarvedOnTransport(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Policy = PolicyBackpressure
		c.BufferBytes = 256 // a few frames per window
		c.ResumeWindow = 1 << 20
	})
	var mu sync.Mutex
	var got []*wire.EdgeDeliverBody
	cl := r.mesh.Endpoint("client")
	if _, err := cl.Listen("client", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind == wire.KindEdgeDeliver {
			if b, err := wire.DecodeEdgeDeliver(env.Body); err == nil {
				mu.Lock()
				got = append(got, b)
				mu.Unlock()
			}
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	hello := &wire.SessionHelloBody{Subscriber: 7, DeliverAddr: "client"}
	resp, err := cl.Request("edge", &wire.Envelope{Kind: wire.KindSessionHello, Body: hello.Encode()}, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	w, err := wire.DecodeSessionWelcome(resp.Body)
	if err != nil || w.Err != "" {
		t.Fatalf("welcome %+v err %v", w, err)
	}
	sub := core.NewSubscription(0, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 100}})
	if _, err := cl.Request("edge", &wire.Envelope{Kind: wire.KindSessionSub,
		Body: (&wire.SessionSubBody{Token: w.Token, Sub: sub}).Encode()}, time.Second); err != nil {
		t.Fatal(err)
	}

	// Push far more than buffer + flight window of upstream deliveries as
	// one-way frames — they all land on the edge's single inbound queue.
	const total = 120
	up := r.mesh.Endpoint("up")
	for i := 1; i <= total; i++ {
		m := core.NewMessage([]float64{50, 50}, []byte("p"))
		m.ID = core.MessageID(i)
		if err := up.Send("edge", &wire.Envelope{Kind: wire.KindDeliverBatch,
			Body: (&wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{{Msg: m}}}).Encode()}); err != nil {
			t.Fatal(err)
		}
	}
	last := func() uint64 {
		mu.Lock()
		defer mu.Unlock()
		if len(got) == 0 {
			return 0
		}
		return got[len(got)-1].Seq
	}
	count := func() int { mu.Lock(); defer mu.Unlock(); return len(got) }
	// Acks arrive on the SAME transport queue, behind the deliveries.
	// Before the staging queue this deadlocked: fan-in blocked the serve
	// goroutine, so the acks were never handled.
	waitFor(t, "all deliveries through ack-driven window", func() bool {
		if err := cl.Send("edge", &wire.Envelope{Kind: wire.KindSessionAck,
			Body: (&wire.SessionAckBody{Token: w.Token, Seq: last()}).Encode()}); err != nil {
			t.Fatal(err)
		}
		return count() == total
	})
	mu.Lock()
	defer mu.Unlock()
	for i, b := range got {
		if b.Msg.ID != core.MessageID(i+1) {
			t.Fatalf("frame %d carries msg %d: loss or reorder", i, b.Msg.ID)
		}
	}
}

// TestEdgeFlightWindowClosesOnEntries: with deliveries much smaller than
// BufferBytes/ResumeWindow, the flight window must still close after
// ResumeWindow sent-but-unacked entries instead of evicting them — a
// consumer that stops acking stops being sent to, and nothing unacked ages
// out of an attached session's ring.
func TestEdgeFlightWindowClosesOnEntries(t *testing.T) {
	const window = 8
	r := newRig(t, func(c *Config) {
		c.Policy = PolicyBackpressure
		c.BufferBytes = 1 << 20 // bytes never bind; entries must
		c.ResumeWindow = window
	})
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)

	const total = 50
	for i := 1; i <= total; i++ {
		pub(r.edge, core.MessageID(i), 50, 50)
	}
	waitFor(t, "flight window filled", func() bool { return c.count() == window })
	time.Sleep(30 * time.Millisecond)
	if n := c.count(); n != window {
		t.Fatalf("%d deliveries without an ack, want the window to close at %d", n, window)
	}
	if ev := r.edge.RingEvicted(); ev != 0 {
		t.Fatalf("%d unacked entries evicted from an attached session's ring", ev)
	}
	// Acking reopens the window; everything arrives with nothing lost.
	waitFor(t, "all frames after acks", func() bool {
		r.edge.ack(tok, c.lastSeq())
		return c.count() == total
	})
	for i, id := range c.msgIDs() {
		if id != core.MessageID(i+1) {
			t.Fatalf("frame %d carries msg %d: loss or reorder", i, id)
		}
	}
}

// TestEdgeSessionCloseFreesState: a SessionClose frame removes the session,
// its subscriptions and its buffered bytes; the token cannot be resumed.
func TestEdgeSessionCloseFreesState(t *testing.T) {
	r := newRig(t, nil)
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)
	pub(r.edge, 1, 50, 50)
	pub(r.edge, 2, 50, 50)
	waitFor(t, "deliveries", func() bool { return c.count() == 2 })
	if r.edge.BufferedBytes() == 0 {
		t.Fatal("no bytes in flight before close")
	}
	// Close through the wire path, as a client would.
	r.edge.handle(&wire.Envelope{Kind: wire.KindSessionClose,
		Body: (&wire.SessionCloseBody{Token: tok}).Encode()})
	if r.edge.Sessions() != 0 {
		t.Fatalf("sessions = %d after close, want 0", r.edge.Sessions())
	}
	if b := r.edge.BufferedBytes(); b != 0 {
		t.Fatalf("buffered bytes = %d after close, want 0", b)
	}
	r.edge.mu.Lock()
	idxLen := r.edge.idx.Len()
	r.edge.mu.Unlock()
	if idxLen != 0 {
		t.Fatalf("index holds %d subscriptions after close, want 0", idxLen)
	}
	if _, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: tok}, c.sink); err == nil {
		t.Fatal("closed token resumed")
	}
	if r.edge.CloseSession(tok) {
		t.Fatal("double close reported a live session")
	}
}

// TestEdgeSessionRetentionExpiry: a session detached longer than
// SessionRetention is reaped — ring bytes freed, subscriptions gone, token
// dead — while attached and recently-detached sessions are untouched.
func TestEdgeSessionRetentionExpiry(t *testing.T) {
	var now atomic.Int64
	now.Store(1)
	r := newRig(t, func(c *Config) {
		c.SessionRetention = time.Second
		c.Now = func() int64 { return now.Load() }
	})
	old, fresh, live := &sinkSession{}, &sinkSession{}, &sinkSession{}
	tokOld := attach(t, r.edge, old)
	subscribe(t, r.edge, tokOld, 0, 100)
	tokLive := attach(t, r.edge, live)
	subscribe(t, r.edge, tokLive, 0, 100)

	pub(r.edge, 1, 50, 50)
	waitFor(t, "deliveries", func() bool { return old.count() == 1 && live.count() == 1 })
	r.edge.Detach(tokOld)

	now.Add(int64(900 * time.Millisecond))
	tokFresh := attach(t, r.edge, fresh)
	r.edge.Detach(tokFresh)

	now.Add(int64(300 * time.Millisecond)) // old is 1.2s stale, fresh only 0.3s
	if n := r.edge.sweepExpired(now.Load()); n != 1 {
		t.Fatalf("sweep reaped %d sessions, want 1", n)
	}
	if r.edge.SessionsExpired() != 1 {
		t.Fatalf("expired counter = %d, want 1", r.edge.SessionsExpired())
	}
	if _, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: tokOld}, old.sink); err == nil {
		t.Fatal("expired token resumed")
	}
	// The fresh detached session and the attached one survive.
	if _, err := r.edge.AttachLocal(&wire.SessionHelloBody{Token: tokFresh}, fresh.sink); err != nil {
		t.Fatalf("in-retention token refused: %v", err)
	}
	pub(r.edge, 2, 50, 50)
	waitFor(t, "live session still served", func() bool { return live.count() == 2 })
}

// failingTransport fails the failAt-th EdgeDeliver send, counting from 1;
// every other frame goes through the wrapped transport.
type failingTransport struct {
	transport.Transport
	failAt int64
	sends  atomic.Int64
}

func (f *failingTransport) Send(addr string, env *wire.Envelope) error {
	if env.Kind == wire.KindEdgeDeliver && f.sends.Add(1) == f.failAt {
		return errors.New("injected send failure")
	}
	return f.Transport.Send(addr, env)
}

// A send that fails partway through a multi-entry flush batch detaches the
// session. The entries already moved to the ring, sent or not, replay on
// resume exactly once and in Seq order.
func TestEdgeSendFailureMidBatchReplaysOnResume(t *testing.T) {
	r := newRig(t, func(c *Config) {
		c.Transport = &failingTransport{Transport: c.Transport, failAt: 2}
	})
	var mu sync.Mutex
	var seqs []uint64
	if _, err := r.mesh.Endpoint("client").Listen("client", func(env *wire.Envelope) *wire.Envelope {
		if b, err := wire.DecodeEdgeDeliver(env.Body); err == nil {
			mu.Lock()
			seqs = append(seqs, b.Seq)
			mu.Unlock()
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	got := func() []uint64 {
		mu.Lock()
		defer mu.Unlock()
		return append([]uint64(nil), seqs...)
	}
	hello := func(tok, last uint64) *wire.SessionWelcomeBody {
		t.Helper()
		w, err := r.edge.hello(&wire.SessionHelloBody{Token: tok, LastSeq: last, Subscriber: 1, DeliverAddr: "client"}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return w
	}
	tok := hello(0, 0).Token
	subscribe(t, r.edge, tok, 0, 100)

	// Deliveries made while detached wait in the ring; the resume moves all
	// six back to the backlog at once, so one flush batch carries them.
	r.edge.Detach(tok)
	const total = 6
	for i := 1; i <= total; i++ {
		pub(r.edge, core.MessageID(i), 50, 50)
	}
	hello(tok, 0)
	waitFor(t, "detach after the failed send", func() bool { return r.edge.Sessions() == 0 })
	waitFor(t, "the frame sent before the failure", func() bool { return len(got()) == 1 })
	if n := r.edge.sendFailures.Value(); n != 1 {
		t.Fatalf("send failures = %d, want 1", n)
	}

	if w := hello(tok, got()[0]); w.Lost != 0 {
		t.Fatalf("resume lost %d deliveries, want 0", w.Lost)
	}
	waitFor(t, "replay of the failed batch", func() bool { return len(got()) >= total })
	r.edge.ack(tok, total)
	if b := r.edge.BufferedBytes(); b != 0 {
		t.Fatalf("buffered bytes = %d after acking every delivery, want 0", b)
	}
	for i, seq := range got() {
		if seq != uint64(i+1) {
			t.Fatalf("client saw seqs %v, want 1..%d exactly once in order", got(), total)
		}
	}
}

func TestPolicyByName(t *testing.T) {
	for name, want := range map[string]Policy{
		"":             PolicyBackpressure,
		"backpressure": PolicyBackpressure,
		"drop-oldest":  PolicyDropOldest,
		"disconnect":   PolicyDisconnect,
	} {
		got, err := PolicyByName(name)
		if err != nil || got != want {
			t.Fatalf("PolicyByName(%q) = %v, %v", name, got, err)
		}
		if name != "" && got.String() != name {
			t.Fatalf("round trip %q -> %q", name, got.String())
		}
	}
	if _, err := PolicyByName("bogus"); err == nil {
		t.Fatal("bogus policy accepted")
	}
}

// Every edge re-matches sessions on the bucket index (its table is typed
// *index.Bucket), whatever the ignored NoCovering field says: a stab examines
// a cell's worth of the table, not all of it.
func TestEdgeDefaultIndexIsBucket(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	for _, noCovering := range []bool{true, false} {
		e, err := New(Config{ID: 9, Space: core.UniformSpace(2, 100), Transport: mesh.Endpoint("edge"),
			DispatcherAddr: "disp", NoCovering: noCovering})
		if err != nil {
			t.Fatal(err)
		}
		// Disjoint one-unit predicates: a stab examines one cell's worth of
		// them, where a scan would examine all.
		for i := 0; i < 100; i++ {
			s := core.NewSubscription(core.SubscriberID(i+1), []core.Range{
				{Low: float64(i), High: float64(i) + 1}, {Low: 0, High: 100}})
			s.ID = core.SubscriptionID(i + 1)
			e.idx.Add(s)
		}
		if got, scanned := e.idx.Stab(50.5, nil); len(got) != 1 || scanned*4 > e.idx.Len() {
			t.Fatalf("NoCovering=%v: stab found %d, examined %d of %d", noCovering, len(got), scanned, e.idx.Len())
		}
	}
}

// Re-matching a publication reuses the edge's match buffers and session map:
// one that reaches no session allocates nothing, one that reaches a session
// allocates its match lists, its encoding and the session's frame, and one
// with the wrong number of attributes is dropped.
func TestEdgeFanOutReusesBuffers(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	e, err := New(Config{ID: 9, Space: core.UniformSpace(2, 100), Transport: mesh.Endpoint("edge"),
		DispatcherAddr: "disp"})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		s := core.NewSubscription(core.SubscriberID(i+1), []core.Range{
			{Low: float64(i), High: float64(i) + 1}, {Low: 0, High: 100}})
		s.ID = core.SubscriptionID(i + 1)
		e.idx.Add(s) // no session holds these tokens: matched, then skipped
	}
	msg := core.NewMessage([]float64{50.5, 50}, nil)
	e.fanOutMsg(msg) // warm the buffers
	if allocs := testing.AllocsPerRun(100, func() { e.fanOutMsg(msg) }); allocs != 0 {
		t.Fatalf("fanOutMsg allocated %v times per publication, want 0", allocs)
	}
	if len(e.perSess) != 0 {
		t.Fatal("fanOutMsg left a session pinned in its grouping map")
	}

	// The edge is not started, so nothing flushes: the session stays queued
	// and its backlog grows by amortized appends. Per publication that
	// leaves the target and ID lists, the encoded message and the ready
	// list, plus one frame for the session.
	w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: 1}, func(*wire.Envelope) {})
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSubscription(core.SubscriberID(w.Token), []core.Range{{Low: 50, High: 51}, {Low: 0, High: 100}})
	s.ID = 1000
	e.idx.Add(s)
	e.fanOutMsg(msg)
	if allocs := testing.AllocsPerRun(100, func() { e.fanOutMsg(msg) }); allocs > 5 {
		t.Fatalf("fanOutMsg allocated %v times for a publication reaching one session, want at most 5", allocs)
	}
	if got := e.FanOut(); got != 102 {
		t.Fatalf("fan-out = %d, want 102", got)
	}
	e.fanOutMsg(core.NewMessage([]float64{50.5}, nil)) // would index past Attrs if matched
}

// An ack only looks its session up, so it goes through while a re-match
// holds the table lock: consumers' acks never queue behind the fan-in worker.
// Publications fanned out from several goroutines at once, beside a consumer
// acking every frame, all arrive exactly once.
func TestEdgeAckProceedsDuringRematch(t *testing.T) {
	r := newRig(t, nil)
	c := &sinkSession{}
	tok := attach(t, r.edge, c)
	subscribe(t, r.edge, tok, 0, 100)
	pub(r.edge, 1, 50, 50)
	waitFor(t, "delivery", func() bool { return c.count() == 1 })

	r.edge.mu.RLock() // as fanOutMsg holds it while it re-matches
	done := make(chan struct{})
	go func() {
		r.edge.Ack(tok, c.lastSeq())
		close(done)
	}()
	acked := false
	select {
	case <-done:
		acked = true
	case <-time.After(5 * time.Second):
	}
	r.edge.mu.RUnlock()
	if !acked {
		t.Fatal("Ack waited for the re-match to release the table lock")
	}
	if b := r.edge.BufferedBytes(); b != 0 {
		t.Fatalf("buffered bytes = %d after the ack, want 0", b)
	}

	fast := attachFast(t, r.edge)
	const publishers, each = 4, 50
	var wg sync.WaitGroup
	for g := 0; g < publishers; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < each; i++ {
				pub(r.edge, core.MessageID(100+g*each+i), 50, 50)
			}
		}()
	}
	wg.Wait()
	waitFor(t, "every concurrent publication", func() bool { return fast.count() >= publishers*each })
	seen := map[core.MessageID]bool{}
	for _, id := range fast.msgIDs() {
		if seen[id] {
			t.Fatalf("msg %d delivered twice", id)
		}
		seen[id] = true
	}
	if len(seen) != publishers*each {
		t.Fatalf("%d distinct deliveries, want %d", len(seen), publishers*each)
	}
}
