package cluster

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/placement"
)

// fastOptions returns cluster options with sub-second control loops so
// integration tests finish quickly.
func fastOptions(matchers int) Options {
	return Options{
		Space:          core.UniformSpace(4, 1000),
		Matchers:       matchers,
		Dispatchers:    2,
		GossipInterval: 50 * time.Millisecond,
		FailAfter:      500 * time.Millisecond,
		ReportInterval: 50 * time.Millisecond,
		RecoveryDelay:  200 * time.Millisecond,
		PruneGrace:     300 * time.Millisecond,
	}
}

// deliverRecorder collects direct deliveries.
type deliverRecorder struct {
	mu   sync.Mutex
	msgs map[core.MessageID][]core.SubscriptionID
}

func newRecorder() *deliverRecorder {
	return &deliverRecorder{msgs: make(map[core.MessageID][]core.SubscriptionID)}
}

func (r *deliverRecorder) onDeliver(m *core.Message, ids []core.SubscriptionID) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.msgs[m.ID] = append(r.msgs[m.ID], ids...)
}

func (r *deliverRecorder) count() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.msgs)
}

func (r *deliverRecorder) totalSubIDs() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, ids := range r.msgs {
		n += len(ids)
	}
	return n
}

func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

func TestEndToEndDirectDelivery(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rec := newRecorder()
	subCl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	subID, err := subCl.Subscribe([]core.Range{
		{Low: 100, High: 400}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	if subID == 0 {
		t.Fatal("zero subscription ID")
	}
	time.Sleep(200 * time.Millisecond) // let stores land

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	// One matching, one non-matching publication.
	if err := pubCl.Publish([]float64{250, 500, 500, 500}, []byte("hit")); err != nil {
		t.Fatal(err)
	}
	if err := pubCl.Publish([]float64{700, 500, 500, 500}, []byte("miss")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rec.count() >= 1 })
	time.Sleep(200 * time.Millisecond)
	if got := rec.count(); got != 1 {
		t.Fatalf("delivered %d distinct messages, want 1", got)
	}
	if got := rec.totalSubIDs(); got != 1 {
		t.Fatalf("delivered %d subscription matches, want 1", got)
	}
}

// A publication with the wrong number of attributes is refused at the
// dispatcher, with an error for an ack client and silently for a
// fire-and-forget one, and the dispatcher keeps serving valid publications.
func TestPublishWrongArityRejected(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	subCl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subCl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond) // let stores land

	ackCl, err := c.NewAckClient(0)
	if err != nil {
		t.Fatal(err)
	}
	fireCl, err := c.NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, attrs := range [][]float64{{1, 2}, {1, 2, 3, 4, 5}} {
		if err := ackCl.Publish(attrs, nil); err == nil {
			t.Fatalf("ack publish of %d attributes on a 4-dimension space succeeded", len(attrs))
		}
		if err := fireCl.Publish(attrs, nil); err != nil {
			t.Fatalf("fire-and-forget publish: %v", err)
		}
	}
	if err := ackCl.Publish([]float64{250, 500, 500, 500}, []byte("valid")); err != nil {
		t.Fatalf("valid publish after the rejected ones: %v", err)
	}
	waitFor(t, 5*time.Second, func() bool { return rec.count() >= 1 })
	time.Sleep(200 * time.Millisecond)
	if got := rec.count(); got != 1 {
		t.Fatalf("delivered %d distinct messages, want only the valid one", got)
	}
}

func TestEndToEndIndirectPolling(t *testing.T) {
	c, err := Start(fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient(0, nil) // indirect: no delivery handler
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	for i := 0; i < 5; i++ {
		if err := cl.Publish([]float64{float64(i * 100), 1, 2, 3}, nil); err != nil {
			t.Fatal(err)
		}
	}
	var got int
	waitFor(t, 5*time.Second, func() bool {
		ds, err := cl.Poll(10)
		if err != nil {
			t.Fatal(err)
		}
		got += len(ds)
		return got >= 5
	})
	if got != 5 {
		t.Fatalf("polled %d deliveries, want 5", got)
	}
}

func TestMultiSubscriberFanout(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	const n = 5
	recs := make([]*deliverRecorder, n)
	for i := 0; i < n; i++ {
		recs[i] = newRecorder()
		cl, err := c.NewClient(i%2, recs[i].onDeliver)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Subscribe([]core.Range{
			{Low: 0, High: 500}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
		}); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	pub, err := c.NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := pub.Publish([]float64{100, 100, 100, 100}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		for _, r := range recs {
			if r.count() == 0 {
				return false
			}
		}
		return true
	})
}

func TestElasticJoinKeepsMatching(t *testing.T) {
	c, err := Start(fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	id, err := c.AddMatcher()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.WaitForTable(2, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	tab := c.Table()
	if tab.N() != 4 || !tab.HasMatcher(id) {
		t.Fatalf("table after join: %v", tab)
	}
	// The new matcher must hold transferred subscriptions on some dimension
	// (the wide subscription overlaps every segment).
	nm := c.Matcher(id)
	waitFor(t, 5*time.Second, func() bool {
		total := 0
		for dim := 0; dim < 4; dim++ {
			total += nm.SubsOnDim(dim)
		}
		return total >= 4
	})
	// Matching still works after the split (publish across the space).
	before := rec.count()
	for i := 0; i < 10; i++ {
		if err := cl.Publish([]float64{float64(i*100 + 50), 500, 500, 500}, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool { return rec.count() >= before+10 })
}

func TestCrashRecoveryReinstallsAndResumes(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	victim := c.MatcherIDs()[0]
	if err := c.CrashMatcher(victim); err != nil {
		t.Fatal(err)
	}
	// Recovery: failure detection (FailAfter) + RecoveryDelay + gossip.
	waitFor(t, 10*time.Second, func() bool {
		tab := c.Table()
		return tab != nil && tab.Version() >= 2 && !tab.HasMatcher(victim)
	})
	// After recovery, publications anywhere in the space must be delivered.
	deadline := time.Now().Add(8 * time.Second)
	for time.Now().Before(deadline) {
		before := rec.count()
		for i := 0; i < 10; i++ {
			_ = cl.Publish([]float64{float64(i*100 + 50), 500, 500, 500}, nil)
		}
		time.Sleep(400 * time.Millisecond)
		if rec.count() >= before+10 {
			return // all 10 delivered post-recovery
		}
	}
	t.Fatal("publications still being lost after recovery")
}

func TestUnsubscribeStopsDelivery(t *testing.T) {
	c, err := Start(fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	})
	if err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := cl.Publish([]float64{1, 2, 3, 4}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rec.count() == 1 })

	if err := cl.Unsubscribe(id); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cl.Publish([]float64{5, 6, 7, 8}, nil); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond)
	if got := rec.count(); got != 1 {
		t.Fatalf("delivery after unsubscribe: %d messages", got)
	}
}

func TestP2PStrategyEndToEnd(t *testing.T) {
	opts := fastOptions(3)
	opts.Strategy = placement.P2P{}
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 200, High: 600}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)
	if err := cl.Publish([]float64{300, 1, 2, 3}, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return rec.count() == 1 })
}

func TestLoadReportsReachDispatchers(t *testing.T) {
	c, err := Start(fastOptions(3))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	cl, err := c.NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		d := c.Dispatchers()[1] // reports must reach the other dispatcher too
		for _, id := range c.MatcherIDs() {
			if l, ok := d.Load(id, 0); ok && l.Subs > 0 {
				return true
			}
		}
		return false
	})
}

func TestOverTCP(t *testing.T) {
	opts := fastOptions(3)
	opts.TCP = true
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 10*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 500}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	if err := cl.Publish([]float64{250, 100, 100, 100}, []byte("tcp")); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 8*time.Second, func() bool { return rec.count() == 1 })
}

// Exhaustive correctness against a brute-force oracle over the full stack.
func TestEndToEndOracle(t *testing.T) {
	c, err := Start(fastOptions(5))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	// A spread of narrow subscriptions.
	type reg struct {
		id    core.SubscriptionID
		preds []core.Range
	}
	var regs []reg
	for i := 0; i < 20; i++ {
		lo := float64(i * 50)
		preds := []core.Range{
			{Low: lo, High: lo + 250},
			{Low: 0, High: 1000},
			{Low: float64(i * 30), High: float64(i*30) + 400},
			{Low: 0, High: 1000},
		}
		id, err := cl.Subscribe(preds)
		if err != nil {
			t.Fatal(err)
		}
		regs = append(regs, reg{id: id, preds: preds})
	}
	time.Sleep(400 * time.Millisecond)

	pub, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	msgs := [][]float64{
		{25, 10, 10, 10}, {333, 900, 333, 1}, {975, 10, 610, 999}, {500, 500, 500, 500},
	}
	wantTotal := 0
	for _, attrs := range msgs {
		for _, r := range regs {
			match := true
			for d, p := range r.preds {
				if !p.Contains(attrs[d]) {
					match = false
					break
				}
			}
			if match {
				wantTotal++
			}
		}
		if err := pub.Publish(attrs, nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 8*time.Second, func() bool { return rec.totalSubIDs() >= wantTotal })
	time.Sleep(300 * time.Millisecond)
	if got := rec.totalSubIDs(); got != wantTotal {
		t.Fatalf("delivered %d subscription matches, oracle says %d", got, wantTotal)
	}
}

func TestNewClientBadIndex(t *testing.T) {
	c, err := Start(fastOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.NewClient(9, nil); err == nil {
		t.Error("out-of-range dispatcher index accepted")
	}
}

func TestMatcherIDsSorted(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ids := c.MatcherIDs()
	if len(ids) != 4 {
		t.Fatalf("ids: %v", ids)
	}
	if !sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) {
		t.Errorf("ids not in start order: %v", ids)
	}
}

// With persistence enabled, a matcher crash under load loses no accepted
// publications: unacked forwards are retransmitted to the survivors.
func TestPersistentForwardingSurvivesCrash(t *testing.T) {
	opts := fastOptions(4)
	opts.Persistent = true
	opts.RetryInterval = 200 * time.Millisecond
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{
		{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// A one-way failure: the victim keeps accepting forwards but its
	// deliveries and acks vanish. Messages routed to it before failure
	// detection can only be recovered by dispatcher retransmission.
	const total = 60
	victim := c.MatcherIDs()[1]
	// Points the victim owns on every dimension: the forwarding policy has
	// no other candidate, so sprinkling these into the isolated half
	// guarantees unacked forwards (the plain points leave the victim as
	// one candidate among several, and the adaptive policy may dodge it).
	vp := victimPoint(t, c, victim)
	for i := 0; i < total; i++ {
		if i == total/2 {
			if err := c.IsolateMatcherOutbound(victim, true); err != nil {
				t.Fatal(err)
			}
		}
		attrs := []float64{float64(i*16 + 1), 500, 500, 500}
		if i >= total/2 && i%5 == 0 {
			attrs = vp
		}
		if err := cl.Publish(attrs, nil); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	// All messages must eventually be delivered (possibly duplicated); the
	// recorder counts distinct message IDs.
	waitFor(t, 20*time.Second, func() bool { return rec.count() >= total })
	// And the retransmit state drains as acks arrive.
	waitFor(t, 10*time.Second, func() bool {
		for _, d := range c.Dispatchers() {
			if d.InflightLen() > 0 {
				return false
			}
		}
		return true
	})
	retrans := int64(0)
	for _, d := range c.Dispatchers() {
		retrans += d.Retransmits.Value()
	}
	if retrans == 0 {
		t.Error("crash under load should have caused retransmissions")
	}
}

// A cluster booted with default Options matches on the bucket index: a
// match examines a narrow window of the set it searches, where a scan would
// examine every stored copy.
func TestDefaultOptionsMatchOnBucketIndex(t *testing.T) {
	c, err := Start(fastOptions(4))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	rec := newRecorder()
	cl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	const nsubs, npubs, width = 2000, 200, 10.0
	rng := rand.New(rand.NewSource(1))
	centers := make([][]float64, nsubs)
	copies := 0
	for i := range centers {
		preds := make([]core.Range, 4)
		centers[i] = make([]float64, 4)
		for d := range preds {
			lo := rng.Float64() * (1000 - width)
			preds[d] = core.Range{Low: lo, High: lo + width}
			centers[i][d] = lo + width/2
		}
		if _, err := cl.Subscribe(preds); err != nil {
			t.Fatal(err)
		}
		copies += len(placement.BlueDove{}.Assign(c.Table(), core.NewSubscription(0, preds)))
	}
	ids := c.MatcherIDs()
	stored := func() int {
		n := 0
		for _, id := range ids {
			for d := 0; d < 4; d++ {
				n += c.Matcher(id).SubsOnDim(d)
			}
		}
		return n
	}
	waitFor(t, 10*time.Second, func() bool { return stored() == copies })
	// Each publication sits at a subscription's center, so it is delivered.
	for i := 0; i < npubs; i++ {
		if err := cl.Publish(centers[i*(nsubs/npubs)], nil); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 10*time.Second, func() bool { return rec.count() == npubs })
	var scanned, processed int64
	for _, id := range ids {
		scanned += c.Matcher(id).Scanned.Value()
		processed += c.Matcher(id).Processed.Value()
	}
	perSet := float64(copies) / float64(4*len(ids))
	if perMsg := float64(scanned) / float64(processed); perMsg*4 >= perSet {
		t.Fatalf("matchers examined %.1f subscriptions per message; a (matcher, dimension) set holds %.1f copies on average, want under a quarter",
			perMsg, perSet)
	}
}
