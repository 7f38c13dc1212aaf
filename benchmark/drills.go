package main

import (
	"encoding/binary"
	"fmt"
	"os"
	"runtime"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/dispatcher"
	"bluedove/internal/edge"
	"bluedove/internal/forward"
	"bluedove/internal/gossip"
	"bluedove/internal/index"
	"bluedove/internal/matcher"
	"bluedove/internal/partition"
	"bluedove/internal/store"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// The layer drills time one layer at a time through its exported API, fed
// the publications and subscriptions of the workload being traced. Each
// reports ns per operation and the layer's count ratios; none runs longer
// than about half a second. They are the third view of a traced run, beside
// the benchmark-side spans and the in-message hop stamps, and exist so a
// change in an end-to-end figure can be pinned on a layer.

// drillWindow bounds the frames a drill keeps in flight toward a mesh
// endpoint, whose inbound queue drops beyond 4096.
const drillWindow = 1024

// drillMatchers are the node IDs of the four-matcher table the drills
// route with, as in the default cluster.
var drillMatchers = []core.NodeID{1, 2, 3, 4}

type drillOut map[string]float64

// drillInputs is the workload sample every drill works from.
type drillInputs struct {
	space *core.Space
	subs  []*core.Subscription // ID i+1, Subscriber recv+1
	msgs  []*core.Message      // pool publications with a 64-byte payload
	ids   [][]core.SubscriptionID
	dir   string // scratch directory for journals
	w     *mix
}

func newDrillInputs(w *mix, in *inputs, dir string) *drillInputs {
	d := &drillInputs{space: in.space, dir: dir, w: w}
	for i := range in.subs {
		s := core.NewSubscription(core.SubscriberID(in.subs[i].recv)+1, in.subs[i].preds)
		s.ID = core.SubscriptionID(i + 1)
		d.subs = append(d.subs, s)
	}
	for i := range in.pool {
		payload := make([]byte, payloadSize)
		binary.LittleEndian.PutUint64(payload, uint64(i))
		m := core.NewMessage(in.pool[i].attrs, payload)
		m.ID = core.MessageID(i + 1)
		d.msgs = append(d.msgs, m)
		var ids []core.SubscriptionID
		for _, si := range in.pool[i].targets[0].subIdx {
			ids = append(ids, core.SubscriptionID(si+1))
		}
		d.ids = append(d.ids, ids)
	}
	return d
}

// mallocs returns the process's cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// waitFor spins (yielding) until cond holds or five seconds pass.
func waitFor(cond func() bool) error {
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			return fmt.Errorf("drill: timed out")
		}
		runtime.Gosched()
	}
	return nil
}

// drillWire times the three bodies a publication crosses on a batching
// path — Publish, ForwardBatch of 64, DeliverBatch of 16 — and reports their
// per-message sum.
func drillWire(d *drillInputs, out drillOut) {
	const rounds = 40
	n := len(d.msgs) / 64 * 64
	fwd := make([]wire.ForwardBatchBody, 0, n/64)
	del := make([]wire.DeliverBatchBody, 0, n/16)
	for i := 0; i < n; i += 64 {
		var b wire.ForwardBatchBody
		for j := i; j < i+64; j++ {
			b.Entries = append(b.Entries, wire.ForwardEntry{Dim: j % d.space.K(), Msg: d.msgs[j]})
		}
		fwd = append(fwd, b)
	}
	for i := 0; i < n; i += 16 {
		var b wire.DeliverBatchBody
		for j := i; j < i+16; j++ {
			b.Deliveries = append(b.Deliveries, wire.DeliverBody{Subscriber: 1, Msg: d.msgs[j], SubIDs: d.ids[j]})
		}
		del = append(del, b)
	}
	// Encode as the senders do: a fresh body per Publish (the client keeps
	// it), a reused scratch buffer for the batch frames.
	buf := make([]byte, 0, 1<<16)
	a0 := mallocs()
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, m := range d.msgs[:n] {
			buf = append(buf[:0], (&wire.PublishBody{Msg: m}).Encode()...)
		}
		for i := range fwd {
			buf = fwd[i].AppendTo(buf[:0])
		}
		for i := range del {
			buf = del[i].AppendTo(buf[:0])
		}
	}
	enc := time.Since(t0)
	var bodies [3][][]byte // publish, forward batch, deliver batch
	for _, m := range d.msgs[:n] {
		bodies[0] = append(bodies[0], (&wire.PublishBody{Msg: m}).Encode())
	}
	for i := range fwd {
		bodies[1] = append(bodies[1], fwd[i].Encode())
	}
	for i := range del {
		bodies[2] = append(bodies[2], del[i].Encode())
	}
	bytes := 0
	for _, bs := range bodies {
		for _, b := range bs {
			bytes += len(b)
		}
	}
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for _, b := range bodies[0] {
			if _, err := wire.DecodePublish(b); err != nil {
				panic(err) // the benchmark's own encoding cannot be malformed
			}
		}
		for _, b := range bodies[1] {
			if _, err := wire.DecodeForwardBatch(b); err != nil {
				panic(err)
			}
		}
		for _, b := range bodies[2] {
			if _, err := wire.DecodeDeliverBatch(b); err != nil {
				panic(err)
			}
		}
	}
	dec := time.Since(t1)
	ops := float64(rounds * n)
	out["wire.encode_ns"] = float64(enc) / ops
	out["wire.decode_ns"] = float64(dec) / ops
	out["wire.allocs_per_msg"] = float64(mallocs()-a0) / ops
	out["wire.bytes_per_msg"] = float64(bytes) / float64(n)
}

// drillTransport times Send→handler on the in-process mesh and on loopback
// TCP (with the workload's flush interval), one Publish-sized frame per op.
func drillTransport(d *drillInputs, out drillOut) error {
	body := (&wire.PublishBody{Msg: d.msgs[0]}).Encode()
	env := &wire.Envelope{Kind: wire.KindPublish, Body: body}
	run := func(tr transport.Transport, listen transport.Transport, addr string, n int) (float64, error) {
		var got atomic.Int64
		bound, err := listen.Listen(addr, func(*wire.Envelope) *wire.Envelope { got.Add(1); return nil })
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for i := 0; i < n; i++ {
			for int64(i)-got.Load() >= drillWindow {
				runtime.Gosched()
			}
			if err := tr.Send(bound, env); err != nil {
				return 0, err
			}
		}
		if err := waitFor(func() bool { return got.Load() == int64(n) }); err != nil {
			return 0, err
		}
		return float64(time.Since(t0)) / float64(n), nil
	}
	mesh := transport.NewMesh(0)
	ns, err := run(mesh.Endpoint("a"), mesh.Endpoint("b"), "b", 200_000)
	mesh.Close()
	if err != nil {
		return fmt.Errorf("mesh send: %w", err)
	}
	out["transport.mesh_send_ns"] = ns

	opts := d.w.options(d.space, "")
	srv, cli := transport.NewTCP(), transport.NewTCP()
	cli.FlushInterval = opts.TCPFlushInterval
	ns, err = run(cli, srv, "127.0.0.1:0", 60_000)
	cli.Close()
	srv.Close()
	if err != nil {
		return fmt.Errorf("tcp send: %w", err)
	}
	out["transport.tcp_send_ns"] = ns
	return nil
}

// flatView is a forward.LoadView in which every matcher reports the same
// load: ranking cost without any cluster behind it.
type flatView struct{}

func (flatView) Load(core.NodeID, int) (forward.DimLoad, bool) {
	return forward.DimLoad{Subs: 1000, QueueLen: 3, ArrivalRate: 900, MatchRate: 1000, ReportedAt: 1}, true
}
func (flatView) Alive(core.NodeID) bool { return true }

// drillRoute times candidate lookup and policy ranking per publication.
func drillRoute(d *drillInputs, out drillOut) error {
	tab, err := partition.NewUniform(d.space, drillMatchers)
	if err != nil {
		return err
	}
	const rounds = 200
	cands := make([][]partition.Candidate, len(d.msgs))
	t0 := time.Now()
	for r := 0; r < rounds; r++ {
		for i, m := range d.msgs {
			cands[i] = tab.CandidatesFor(m)
		}
	}
	out["partition.candidates_ns"] = float64(time.Since(t0)) / float64(rounds*len(d.msgs))
	var pol forward.Adaptive
	ranked := 0
	t1 := time.Now()
	for r := 0; r < rounds; r++ {
		for i := range d.msgs {
			ranked += len(pol.Rank(int64(r), cands[i], flatView{}))
		}
	}
	out["forward.rank_ns"] = float64(time.Since(t1)) / float64(rounds*len(d.msgs))
	if ranked == 0 {
		return fmt.Errorf("drill: policy ranked no candidate")
	}
	return nil
}

// stubMatcher is a mesh endpoint that gossips as a matcher, counts the
// forwards it is sent and acks each, so a real dispatcher has somewhere to
// forward to and its inflight table drains.
type stubMatcher struct {
	gsp          *gossip.Gossiper
	msgs, frames atomic.Int64
}

func startStubMatcher(mesh *transport.Mesh, id core.NodeID, dispAddr string) (*stubMatcher, error) {
	addr := fmt.Sprintf("stub-matcher-%d", id)
	ep := mesh.Endpoint(addr)
	g, err := gossip.New(gossip.Config{ID: id, Addr: addr, Role: core.RoleMatcher, Transport: ep,
		Seeds: []string{dispAddr}, Interval: 20 * time.Millisecond})
	if err != nil {
		return nil, err
	}
	s := &stubMatcher{gsp: g}
	_, err = ep.Listen(addr, func(env *wire.Envelope) *wire.Envelope {
		switch env.Kind {
		case wire.KindGossip:
			return g.HandleGossip(env)
		case wire.KindForward:
			if b, err := wire.DecodeForward(env.Body); err == nil {
				s.frames.Add(1)
				s.msgs.Add(1)
				_ = ep.Send(dispAddr, &wire.Envelope{Kind: wire.KindForwardAck, From: id,
					Body: (&wire.ForwardAckBody{ID: b.Msg.ID}).Encode()})
			}
		case wire.KindForwardBatch:
			if b, err := wire.DecodeForwardBatch(env.Body); err == nil {
				ack := wire.ForwardAckBatchBody{}
				for _, e := range b.Entries {
					ack.IDs = append(ack.IDs, e.Msg.ID)
				}
				s.frames.Add(1)
				s.msgs.Add(int64(len(b.Entries)))
				_ = ep.Send(dispAddr, &wire.Envelope{Kind: wire.KindForwardAckBatch, From: id, Body: ack.Encode()})
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	g.Start()
	return s, nil
}

// dispatcherIngest runs a real dispatcher between a publishing endpoint and
// four stub matchers and returns ns per publication from publish-in to
// forward-out, and publications per forward frame. With dataDir set the
// dispatcher is persistent and journals every pending forward and ack.
func dispatcherIngest(d *drillInputs, dataDir string, n int) (nsPerMsg, msgsPerFrame float64, err error) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	const addr = "drill-dispatcher"
	opts := d.w.options(d.space, "")
	disp, err := dispatcher.New(dispatcher.Config{
		ID: 9, Addr: addr, Space: d.space, Transport: mesh.Endpoint(addr),
		GossipInterval: 20 * time.Millisecond,
		ForwardLinger:  opts.ForwardLinger,
		Persistent:     dataDir != "", DataDir: dataDir, Fsync: store.FsyncInterval,
	})
	if err != nil {
		return 0, 0, err
	}
	if err := disp.Start(); err != nil {
		return 0, 0, err
	}
	defer disp.Stop()
	var stubs []*stubMatcher
	for _, id := range drillMatchers {
		s, err := startStubMatcher(mesh, id, addr)
		if err != nil {
			return 0, 0, err
		}
		defer s.gsp.Stop()
		stubs = append(stubs, s)
	}
	if err := waitFor(func() bool {
		for _, id := range drillMatchers {
			if !disp.Alive(id) {
				return false
			}
		}
		return true
	}); err != nil {
		return 0, 0, fmt.Errorf("dispatcher drill: stub matchers never became alive: %w", err)
	}
	tab, err := partition.NewUniform(d.space, drillMatchers)
	if err != nil {
		return 0, 0, err
	}
	disp.SetTable(tab)

	forwarded := func() (msgs, frames int64) {
		for _, s := range stubs {
			msgs += s.msgs.Load()
			frames += s.frames.Load()
		}
		return
	}
	client := mesh.Endpoint("drill-client")
	bodies := make([][]byte, len(d.msgs))
	for i, m := range d.msgs {
		c := m.Clone()
		c.ID = 0 // the dispatcher assigns IDs
		bodies[i] = (&wire.PublishBody{Msg: c}).Encode()
	}
	t0 := time.Now()
	for i := 0; i < n; i++ {
		for {
			if got, _ := forwarded(); int64(i)-got < drillWindow {
				break
			}
			runtime.Gosched()
		}
		if err := client.Send(addr, &wire.Envelope{Kind: wire.KindPublish, Body: bodies[i%len(bodies)]}); err != nil {
			return 0, 0, err
		}
	}
	if err := waitFor(func() bool { got, _ := forwarded(); return got >= int64(n) }); err != nil {
		got, _ := forwarded()
		return 0, 0, fmt.Errorf("dispatcher drill: %d of %d forwarded: %w", got, n, err)
	}
	el := time.Since(t0)
	msgs, frames := forwarded()
	return float64(el) / float64(n), float64(msgs) / float64(frames), nil
}

func drillDispatcher(d *drillInputs, out drillOut) error {
	const n = 30_000
	plain, perFrame, err := dispatcherIngest(d, "", n)
	if err != nil {
		return err
	}
	dir, err := os.MkdirTemp(d.dir, "drill-disp-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	durable, _, err := dispatcherIngest(d, dir, n)
	if err != nil {
		return err
	}
	out["dispatcher.ingest_ns"] = plain
	out["dispatcher.journal_ns"] = durable - plain
	out["dispatcher.msgs_per_forward_frame"] = perFrame
	return nil
}

// drillStore times journal appends of one encoded publication under the
// interval fsync policy the durable workload uses.
func drillStore(d *drillInputs, out drillOut) error {
	dir, err := os.MkdirTemp(d.dir, "drill-store-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	st, err := store.Open(store.Options{Dir: dir, Fsync: store.FsyncInterval})
	if err != nil {
		return err
	}
	rec := (&wire.PublishBody{Msg: d.msgs[0]}).Encode()
	const n = 200_000
	t0 := time.Now()
	for i := 0; i < n; i++ {
		if err := st.Append(1, rec); err != nil {
			st.Close()
			return err
		}
	}
	el := time.Since(t0)
	out["store.append_ns"] = float64(el) / n
	out["store.bytes_per_record"] = float64(st.AppendBytes.Value()) / float64(st.Appends.Value())
	out["store.syncs_per_append"] = float64(st.Fsyncs.Value()) / float64(st.Appends.Value())
	return st.Close()
}

// drillMatcher runs a real matcher as node 1 of the four-matcher table: it
// is sent exactly the subscription copies mPartition would place on node 1
// and the publications that have node 1 as a candidate, and delivers to two
// counting subscriber endpoints. Forwards carry no sender, so no acks flow.
func drillMatcher(d *drillInputs, out drillOut) error {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	const addr = "drill-matcher"
	m, err := matcher.New(matcher.Config{ID: 1, Addr: addr, Space: d.space, Transport: mesh.Endpoint(addr)})
	if err != nil {
		return err
	}
	if err := m.Start(); err != nil {
		return err
	}
	defer m.Stop()
	var frames atomic.Int64
	subAddr := []string{"drill-sub-0", "drill-sub-1"}
	for _, a := range subAddr {
		if _, err := mesh.Endpoint(a).Listen(a, func(*wire.Envelope) *wire.Envelope { frames.Add(1); return nil }); err != nil {
			return err
		}
	}
	tab, err := partition.NewUniform(d.space, drillMatchers)
	if err != nil {
		return err
	}
	stored := func() (n int) {
		for dim := 0; dim < d.space.K(); dim++ {
			n += m.SubsOnDim(dim)
		}
		return
	}
	feeder := mesh.Endpoint("drill-feeder")
	want := 0
	for _, s := range d.subs {
		for _, a := range tab.Assignments(s) {
			if a.Node != 1 {
				continue
			}
			for want-stored() >= drillWindow {
				runtime.Gosched()
			}
			body := (&wire.StoreBody{Dim: a.Dim, Sub: s, DeliverAddr: subAddr[int(s.Subscriber)%2]}).Encode()
			if err := feeder.Send(addr, &wire.Envelope{Kind: wire.KindStore, Body: body}); err != nil {
				return err
			}
			want++
		}
	}
	if err := waitFor(func() bool { return stored() >= want }); err != nil {
		return fmt.Errorf("matcher drill: %d of %d copies stored: %w", stored(), want, err)
	}
	var fwd [][]byte
	for _, msg := range d.msgs {
		for _, c := range tab.CandidatesFor(msg) {
			if c.Node == 1 {
				fwd = append(fwd, (&wire.ForwardBody{Dim: c.Dim, Msg: msg}).Encode())
				break
			}
		}
	}
	if len(fwd) == 0 {
		return fmt.Errorf("matcher drill: no pool publication routes to node 1")
	}
	// Time-boxed: matching cost varies a hundredfold between workloads.
	n := 0
	t0 := time.Now()
	for time.Since(t0) < 400*time.Millisecond {
		for int64(n)-m.Processed.Value() >= drillWindow {
			runtime.Gosched()
		}
		if err := feeder.Send(addr, &wire.Envelope{Kind: wire.KindForward, Body: fwd[n%len(fwd)]}); err != nil {
			return err
		}
		n++
	}
	if err := waitFor(func() bool { return m.Processed.Value() >= int64(n) }); err != nil {
		return fmt.Errorf("matcher drill: %d of %d processed: %w", m.Processed.Value(), n, err)
	}
	el := time.Since(t0)
	out["matcher.service_ns"] = float64(el) / float64(n)
	out["matcher.scanned_per_msg"] = float64(m.Scanned.Value()) / float64(n)
	out["matcher.matched_per_msg"] = float64(m.Matched.Value()) / float64(n)
	time.Sleep(10 * time.Millisecond) // Deliver frames trail Processed by the subscriber endpoints' queues
	out["matcher.deliver_frames_per_msg"] = float64(frames.Load()) / float64(n)
	return nil
}

// drillIndex times the bucket index on dimension 0 holding every static
// subscription: insert, stab-and-verify, remove.
func drillIndex(d *drillInputs, out drillOut) {
	idx := index.NewSized(index.KindBucket, d.space, 0, 0)
	t0 := time.Now()
	for _, s := range d.subs {
		idx.Add(s)
	}
	out["index.add_ns"] = float64(time.Since(t0)) / float64(len(d.subs))
	var dst, cands []*core.Subscription
	var scanned, matched, n int
	t1 := time.Now()
	for time.Since(t1) < 300*time.Millisecond {
		for _, m := range d.msgs[:256] {
			var sc int
			dst, cands, sc = index.Match(idx, m, dst[:0], cands)
			scanned += sc
			matched += len(dst)
			n++
		}
	}
	out["index.match_ns"] = float64(time.Since(t1)) / float64(n)
	out["index.useful_ratio"] = float64(matched) / float64(max(scanned, 1))
	// Time-boxed: removal from a bucket index walks every bucket the
	// predicate spans, which on wide predicates is slow enough that removing
	// all of a large set would take many seconds.
	removed := 0
	t2 := time.Now()
	for _, s := range d.subs {
		idx.Remove(s.ID)
		if removed++; removed%64 == 0 && time.Since(t2) > 300*time.Millisecond {
			break
		}
	}
	out["index.remove_ns"] = float64(time.Since(t2)) / float64(removed)
}

// drillEdge runs a real edge behind a stub dispatcher, attaches one local
// session per sampled subscription (all of them on the edge workload, 2000
// otherwise) and injects publications with Edge.Deliver; the clock stops
// when the last sink has been called.
func drillEdge(d *drillInputs, out drillOut) error {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	var nextSub atomic.Uint64
	if _, err := mesh.Endpoint("drill-disp").Listen("drill-disp", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind != wire.KindSubscribe {
			return nil
		}
		return &wire.Envelope{Kind: wire.KindSubscribeAck,
			Body: (&wire.SubscribeAckBody{ID: core.SubscriptionID(nextSub.Add(1))}).Encode()}
	}); err != nil {
		return err
	}
	e, err := edge.New(edge.Config{ID: 7, Addr: "drill-edge", Space: d.space,
		Transport: mesh.Endpoint("drill-edge"), DispatcherAddr: "drill-disp", NoCovering: true})
	if err != nil {
		return err
	}
	if err := e.Start(); err != nil {
		return err
	}
	defer e.Stop()
	subs := d.subs
	if !d.w.edge && len(subs) > 2000 {
		subs = subs[:2000]
	}
	// The same table the edge builds, to count what a re-match examines.
	table := index.NewSized(index.KindBucket, d.space, 0, 0)
	var frames atomic.Int64
	for _, s := range subs {
		table.Add(s)
		var token, seen atomic.Uint64
		w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: s.Subscriber}, func(*wire.Envelope) {
			frames.Add(1)
			if n := seen.Add(1); n%16 == 0 {
				e.Ack(token.Load(), n)
			}
		})
		if err != nil {
			return err
		}
		token.Store(w.Token)
		if _, err := e.Subscribe(w.Token, s); err != nil {
			return err
		}
	}
	var scanned, n int
	var cands, dst []*core.Subscription
	t0 := time.Now()
	for time.Since(t0) < 400*time.Millisecond {
		m := d.msgs[n%len(d.msgs)]
		e.Deliver(m)
		n++
	}
	if err := waitFor(func() bool { return frames.Load() >= e.FanOut() }); err != nil {
		return fmt.Errorf("edge drill: %d of %d deliveries reached a sink: %w", frames.Load(), e.FanOut(), err)
	}
	el := time.Since(t0)
	for i := 0; i < n && i < len(d.msgs); i++ {
		var sc int
		dst, cands, sc = index.Match(table, d.msgs[i], dst[:0], cands)
		scanned += sc
	}
	out["edge.fanout_ns"] = float64(el) / float64(n)
	out["edge.fanout_ns_per_delivery"] = float64(el) / float64(max(e.FanOut(), 1))
	out["edge.scanned_per_msg"] = float64(scanned) / float64(min(n, len(d.msgs)))
	out["edge.frames_per_delivery"] = float64(frames.Load()) / float64(max(e.FanOut(), 1))
	return nil
}

// runDrills runs every layer drill on the workload's inputs.
func runDrills(w *mix, in *inputs, dir string) (drillOut, error) {
	d := newDrillInputs(w, in, dir)
	out := drillOut{}
	drillWire(d, out)
	drillIndex(d, out)
	for _, f := range []func(*drillInputs, drillOut) error{
		drillTransport, drillRoute, drillDispatcher, drillStore, drillMatcher, drillEdge,
	} {
		if err := f(d, out); err != nil {
			return nil, err
		}
	}
	return out, nil
}
