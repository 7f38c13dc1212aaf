package main

import (
	"errors"
	"fmt"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"bluedove/internal/client"
	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/edge"
	"bluedove/internal/partition"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// maxOutstanding is the closed-loop window: publications one generator may
// have published but not yet seen fully delivered.
const maxOutstanding = 128

// deliveryDeadline is how long a publication may take to reach its last
// receiver before it counts as missing.
const deliveryDeadline = 5 * time.Second

// generators is the number of load-generating goroutines (and client
// connections): the benchmark shares the box with the system under test and
// must not outnumber it.
func generators() int { return min(runtime.NumCPU(), 2) }

// system is a booted cluster with every subscription installed and a
// tracker wired to every receiver.
type system struct {
	w     *mix
	in    *inputs
	opts  cluster.Options
	c     *cluster.Cluster
	t     *tracker
	pubs  []publisher
	churn *client.Client
	// churnOps and churnFailed count the churn goroutine's operations; they
	// are read only after startChurn's stop function has returned.
	churnOps, churnFailed int
	dataDir               string
	closers               []func()
	setup                 time.Duration
}

// stopwatch accumulates the timed parts of set-up, so benchmark-side
// bookkeeping between them is not charged to the system.
type stopwatch struct {
	total time.Duration
	since time.Time
}

func (s *stopwatch) start() { s.since = time.Now() }
func (s *stopwatch) stop()  { s.total += time.Since(s.since) }

// setUp boots the workload's cluster and takes it to the point where
// measurement can begin: cluster.Start, table adopted everywhere, every
// subscription or session installed, and one probe per publisher delivered
// to every receiver the oracle expects. The elapsed time is setup_s.
func setUp(w *mix, in *inputs, capacity int, outDir string, trace *traceRec) (_ *system, err error) {
	sys := &system{w: w, in: in}
	defer func() {
		if err != nil {
			sys.close()
		}
	}()
	if w.ack {
		if sys.dataDir, err = os.MkdirTemp(outDir, "data-"); err != nil {
			return nil, err
		}
	}
	sys.opts = w.options(in.space, sys.dataDir)
	if trace != nil {
		sys.opts.Telemetry, sys.opts.TraceSampleRate = true, 1
	}
	var sw stopwatch
	sw.start()
	if sys.c, err = cluster.Start(sys.opts); err != nil {
		return nil, fmt.Errorf("cluster.Start: %w", err)
	}
	if err = sys.c.WaitForTable(1, 30*time.Second); err != nil {
		return nil, err
	}
	sw.stop()

	nPub := generators()
	if w.churnRate > 0 {
		nPub = max(nPub-1, 1)
	}
	sys.t = newTracker(in.pool, capacity, nPub, trace)
	sys.t.atLeastOnce = sys.opts.Persistent
	ids := make([]core.SubscriptionID, len(in.subs))

	sw.start()
	if w.edge {
		err = sys.attachSessions(ids)
	} else {
		err = sys.subscribeClients(ids)
	}
	if err != nil {
		return nil, err
	}
	for i := 0; i < nPub; i++ {
		var p *client.Client
		if p, err = sys.newClient(i%len(sys.c.Dispatchers()), nil); err != nil {
			return nil, err
		}
		sys.pubs = append(sys.pubs, p.Publish)
	}
	if w.churnRate > 0 {
		if sys.churn, err = sys.newClient(0, func(*core.Message, []core.SubscriptionID) {}); err != nil {
			return nil, err
		}
	}
	sw.stop()

	// The oracle was computed over subscription indexes; now that the
	// system has assigned IDs, turn each expectation into a sorted ID list.
	for i := range in.pool {
		for k := range in.pool[i].targets {
			tg := &in.pool[i].targets[k]
			tg.ids = tg.ids[:0]
			for _, si := range tg.subIdx {
				tg.ids = append(tg.ids, ids[si])
			}
			slices.Sort(tg.ids)
		}
	}

	sw.start()
	if !w.edge {
		if err = sys.waitStored(); err != nil {
			return nil, err
		}
	}
	if err = sys.probe(); err != nil {
		return nil, err
	}
	sw.stop()
	sys.setup = sw.total
	sys.t.checking.Store(true)
	return sys, nil
}

// newClient connects a client to dispatcher d the way cluster.NewClient and
// cluster.NewAckClient do, except that on TCP it owns the client's transport
// so teardown can close it.
func (sys *system) newClient(d int, onDeliver func(*core.Message, []core.SubscriptionID)) (*client.Client, error) {
	switch {
	case sys.opts.TCP:
		tr := transport.NewTCP()
		tr.FlushInterval = sys.opts.TCPFlushInterval
		sys.closers = append(sys.closers, func() { tr.Close() })
		cfg := client.Config{Transport: tr, DispatcherAddr: sys.c.DispatcherAddrs()[d],
			Subscriber: sys.c.NewSubscriberID(), AckPublish: sys.w.ack && onDeliver == nil}
		if onDeliver != nil {
			cfg.ListenAddr, cfg.OnDeliver = "127.0.0.1:0", onDeliver
		}
		return client.New(cfg)
	case sys.w.ack && onDeliver == nil:
		return sys.c.NewAckClient(d)
	default:
		return sys.c.NewClient(d, onDeliver)
	}
}

// maxUnstored is how many subscription copies the installers leave in
// flight between dispatchers and matchers. Subscribe is acknowledged when
// the dispatcher has sent the Store frames, not when matchers have applied
// them, and a mesh endpoint drops frames once 4096 are queued: an installer
// that ran ahead of the matchers would silently lose subscriptions.
const maxUnstored = 1024

// copies is the number of (matcher, dimension) placements mPartition gives
// a subscription: the Store frames one Subscribe sends.
func copies(tab *partition.Table, sub *subSpec) int64 {
	return int64(len(tab.Assignments(core.NewSubscription(0, sub.preds))))
}

// subscribeClients creates one direct subscriber client per receiver and has
// each register its own subscriptions, one Subscribe round-trip at a time.
func (sys *system) subscribeClients(ids []core.SubscriptionID) error {
	t, in := sys.t, sys.in
	errs := make([]error, in.nRecv)
	tab := sys.c.Table()
	var sent atomic.Int64 // copies the dispatchers have been asked to store
	var wg sync.WaitGroup
	for r := 0; r < in.nRecv; r++ {
		recv := int32(r)
		cl, err := sys.newClient(r%len(sys.c.Dispatchers()),
			func(m *core.Message, subIDs []core.SubscriptionID) { t.deliver(recv, m, subIDs) })
		if err != nil {
			return err
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range in.subs {
				if in.subs[i].recv != recv {
					continue
				}
				start := nowNs()
				id, err := cl.Subscribe(in.subs[i].preds)
				if err != nil {
					errs[recv] = fmt.Errorf("subscribe %d: %w", i, err)
					return
				}
				if t.trace != nil {
					t.trace.span("client.subscribe", uint64(i), start, nowNs())
				}
				ids[i] = id
				n := sent.Add(copies(tab, &in.subs[i]))
				for n-sys.stored() > maxUnstored {
					time.Sleep(100 * time.Microsecond)
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

// attachSessions attaches one local session per receiver to edge 0 and
// registers its subscription. The sink is the session's whole client: it
// decodes the frame, hands the delivery to the tracker and acks every 16th.
func (sys *system) attachSessions(ids []core.SubscriptionID) error {
	t, in := sys.t, sys.in
	e := sys.c.Edges()[0]
	g := generators()
	errs := make([]error, g)
	var wg sync.WaitGroup
	for part := 0; part < g; part++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := part; i < len(in.subs); i += g {
				if err := attachSession(e, t, &in.subs[i], &ids[i], uint64(i)); err != nil {
					errs[part] = fmt.Errorf("session %d: %w", i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	return errors.Join(errs...)
}

func attachSession(e *edge.Edge, t *tracker, sub *subSpec, id *core.SubscriptionID, n uint64) error {
	var token atomic.Uint64
	recv := sub.recv
	sink := func(env *wire.Envelope) {
		b, err := wire.DecodeEdgeDeliver(env.Body)
		if err != nil {
			t.reject(&t.bad.malformed)
			return
		}
		t.deliver(recv, b.Msg, b.SubIDs)
		if b.Seq%16 == 0 {
			start := nowNs()
			e.Ack(token.Load(), b.Seq)
			if t.trace != nil {
				t.trace.span("edge.ack", b.Seq, start, nowNs())
			}
		}
	}
	start := nowNs()
	w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: core.SubscriberID(recv) + 1}, sink)
	if err != nil {
		return err
	}
	token.Store(w.Token)
	mid := nowNs()
	*id, err = e.Subscribe(w.Token, core.NewSubscription(0, sub.preds))
	if t.trace != nil {
		t.trace.span("edge.attach_local", n, start, mid)
		t.trace.span("edge.subscribe", n, mid, nowNs())
	}
	return err
}

// waitStored blocks until the matchers hold at least one copy of every
// static subscription per placement. Subscribe returns once the dispatcher
// has queued the Store frames, and frames from different dispatchers reach a
// matcher in no fixed order relative to each other, so a publication sent
// right after the last Subscribe could otherwise overtake a Store.
func (sys *system) waitStored() error {
	tab := sys.c.Table()
	var want int64
	for i := range sys.in.subs {
		want += copies(tab, &sys.in.subs[i])
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		got := sys.stored()
		if got >= want {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("set-up: matchers hold %d of %d subscription copies", got, want)
		}
		time.Sleep(time.Millisecond)
	}
}

// stored is the number of subscription copies the matchers hold.
func (sys *system) stored() int64 {
	var n int64
	for _, id := range sys.c.MatcherIDs() {
		for d := 0; d < sys.in.space.K(); d++ {
			n += int64(sys.c.Matcher(id).SubsOnDim(d))
		}
	}
	return n
}

// probe sends publications through every publisher until, for each, one has
// reached every receiver the oracle expects — the end of set-up.
func (sys *system) probe() error {
	t := sys.t
	payload := make([]byte, payloadSize)
	deadline := time.Now().Add(30 * time.Second)
	for g, pub := range sys.pubs {
		for {
			seq := t.next.Load()
			if !t.publish(g, pub, payload, 0) {
				return errors.New("set-up: probe ran out of record space")
			}
			if t.waitDone(seq, seq+1, time.Now().Add(200*time.Millisecond)) && !t.recs[seq].refused {
				break
			}
			if time.Now().After(deadline) {
				return fmt.Errorf("set-up: probe via publisher %d never fully delivered", g)
			}
		}
	}
	return nil
}

// close stops everything the system started and removes its journal.
func (sys *system) close() {
	if sys.c != nil {
		sys.c.Close()
	}
	for _, f := range sys.closers {
		f()
	}
	if sys.dataDir != "" {
		os.RemoveAll(sys.dataDir)
	}
}
