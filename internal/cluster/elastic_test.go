package cluster

import (
	"fmt"
	"testing"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/core"
	"bluedove/internal/wire"
)

// subCount sums a matcher's stored subscriptions across dimensions.
func subCount(c *Cluster, id core.NodeID) int {
	m := c.Matcher(id)
	if m == nil {
		return -1
	}
	total := 0
	for _, l := range m.LoadSnapshot() {
		total += l.Subs
	}
	return total
}

// degradeLinks applies faults to every dispatcher↔matcher link, both ways.
func degradeLinks(c *Cluster, ctrl *chaos.Controller, faults chaos.LinkFaults) {
	for _, id := range c.MatcherIDs() {
		maddr, _ := c.MatcherAddr(id)
		for _, daddr := range c.DispatcherAddrs() {
			ctrl.SetFaults(daddr, maddr, faults)
			ctrl.SetFaults(maddr, daddr, faults)
		}
	}
}

// TestRemoveMatcherDrainsZeroLoss: a controller-initiated scale-down in the
// middle of a publication burst, over degraded links, loses nothing the
// dispatcher acked — the leaving matcher transfers its subscriptions over
// range-bounded frames, keeps serving stale-routed traffic through the drain
// grace, and only then stops.
func TestRemoveMatcherDrainsZeroLoss(t *testing.T) {
	seed := chaosSeed(t)
	ctrl := chaos.NewController(seed)
	defer ctrl.Close()
	opts := fastOptions(4)
	opts.Chaos = ctrl
	opts.Persistent = true
	opts.RetryInterval = 100 * time.Millisecond
	opts.DrainGrace = 400 * time.Millisecond
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	aud := chaos.NewAuditor()
	aud.Subscribed(1, fullSpace())
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subCl.Subscribe(fullSpace()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)
	degradeLinks(c, ctrl, chaos.LinkFaults{Drop: 0.05, Duplicate: 0.05,
		DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond})

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	victim := c.MatcherIDs()[1]
	removed := make(chan error, 1)
	const burst = 150
	for i := 0; i < burst; i++ {
		if i == burst/3 {
			go func() { removed <- c.RemoveMatcher(victim) }()
		}
		token := fmt.Sprintf("drain-%03d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			t.Fatalf("publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(2 * time.Millisecond)
	}
	if err := <-removed; err != nil {
		t.Fatalf("remove matcher: %v", err)
	}
	if err := aud.WaitComplete(20 * time.Second); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if tab := c.Table(); tab.HasMatcher(victim) {
		t.Fatalf("removed matcher %v still in table v%d", victim, tab.Version())
	}
	if got := len(c.LiveMatcherIDs()); got != 3 {
		t.Fatalf("live matchers = %d, want 3", got)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestSplitSegmentRehomesRange: SplitSegment cuts the hot matcher's widest
// segment and re-homes the upper half, growing the table without losing
// acked traffic.
func TestSplitSegmentRehomesZeroLoss(t *testing.T) {
	opts := fastOptions(3)
	opts.Persistent = true
	opts.RetryInterval = 100 * time.Millisecond
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	aud := chaos.NewAuditor()
	aud.Subscribed(1, fullSpace())
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subCl.Subscribe(fullSpace()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	ids := c.MatcherIDs()
	hot, to := ids[0], ids[2]
	segsBefore := c.Table().Segments(0)
	cut, err := c.SplitSegment(hot, 0, to)
	if err != nil {
		t.Fatalf("split: %v", err)
	}
	if got := c.Table().Segments(0); got != segsBefore+1 {
		t.Fatalf("dim-0 segments = %d after split, want %d", got, segsBefore+1)
	}
	t.Logf("split matcher %v dim 0 at %g -> matcher %v", hot, cut, to)

	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 100
	for i := 0; i < burst; i++ {
		token := fmt.Sprintf("split-%03d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			t.Fatalf("publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(time.Millisecond)
	}
	if err := aud.WaitComplete(20 * time.Second); err != nil {
		t.Fatal(err)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestElasticIdleScalesDownToFloor: with the embedded controller on, a
// sustained-idle cluster shrinks itself to MinMatchers and stops — scale-down
// decisions fire, are journaled through the hook, and never cross the floor.
func TestElasticIdleScalesDownToFloor(t *testing.T) {
	opts := fastOptions(4)
	opts.Elastic = true
	opts.ElasticInterval = 50 * time.Millisecond
	opts.DrainGrace = 200 * time.Millisecond
	opts.ElasticConfig.SustainRounds = 3
	opts.ElasticConfig.CooldownRounds = 2
	opts.ElasticConfig.MinMatchers = 2
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	waitFor(t, 15*time.Second, func() bool {
		return len(c.LiveMatcherIDs()) == 2
	})
	// The floor holds: no further shrink.
	time.Sleep(500 * time.Millisecond)
	if got := len(c.LiveMatcherIDs()); got != 2 {
		t.Fatalf("live matchers = %d after floor, want 2", got)
	}
	ctrl := c.ElasticController()
	if ctrl.ScaleDowns.Value() != 2 {
		t.Errorf("scale-down counter = %d, want 2", ctrl.ScaleDowns.Value())
	}
	if ctrl.Thrash.Value() != 0 {
		t.Errorf("thrash = %d, want 0", ctrl.Thrash.Value())
	}
	active, joining, draining := c.MatcherStates()
	if active != 2 || joining != 0 || draining != 0 {
		t.Errorf("states = %d active %d joining %d draining, want 2/0/0", active, joining, draining)
	}
	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}

// TestElasticScaleUpUnderLoad: throttled matchers under a sustained publish
// stream push utilization over the high watermark; the controller starts a
// new matcher through the join protocol.
func TestElasticScaleUpUnderLoad(t *testing.T) {
	opts := fastOptions(2)
	opts.Elastic = true
	opts.ElasticInterval = 50 * time.Millisecond
	opts.ElasticConfig.SustainRounds = 2
	opts.ElasticConfig.CooldownRounds = 4
	opts.ElasticConfig.MinMatchers = 2
	opts.ElasticConfig.MaxMatchers = 4
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}
	subCl, err := c.NewClient(0, func(*core.Message, []core.SubscriptionID) {})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subCl.Subscribe(fullSpace()); err != nil {
		t.Fatal(err)
	}
	time.Sleep(200 * time.Millisecond)

	// Starve the matchers (synthetic 20ms service time ≈ 50 msg/s capacity)
	// and outrun them.
	for _, id := range c.MatcherIDs() {
		c.ThrottleMatcher(id, 20*time.Millisecond)
	}
	stop := make(chan struct{})
	for p := 0; p < 2; p++ {
		pubCl, err := c.NewClient(1, nil)
		if err != nil {
			t.Fatal(err)
		}
		go func(off int) {
			i := off
			for {
				select {
				case <-stop:
					return
				default:
				}
				_ = pubCl.Publish([]float64{float64(i % 1000), 500, 500, 500}, nil)
				i += 2
				time.Sleep(time.Millisecond)
			}
		}(p)
	}
	defer close(stop)

	waitFor(t, 15*time.Second, func() bool {
		return len(c.LiveMatcherIDs()) >= 3
	})
	if c.ElasticController().ScaleUps.Value() == 0 {
		t.Fatal("scale-up counter still 0 after growth")
	}
}

// TestChaosMidTransferCrashDoubleAdoptionGuard is the satellite chaos test
// for the range-bounded transfer frame: the receiver crashes after adopting a
// controller-initiated transfer, so the controller — unable to know whether
// it landed — re-issues the identical handover after the restart. The
// journal-backed adoption guard must drop the replays (the subscription is
// stored exactly once) and the whole dance must lose no acked publication
// under degraded links.
func TestChaosMidTransferCrashDoubleAdoptionGuard(t *testing.T) {
	seed := chaosSeed(t)
	ctrl := chaos.NewController(seed)
	defer ctrl.Close()
	opts := fastOptions(3)
	opts.Chaos = ctrl
	opts.DataDir = t.TempDir()
	opts.Persistent = true
	opts.RetryInterval = 100 * time.Millisecond
	// A long prune grace keeps the source's copy alive across the whole
	// crash/retry dance, so the re-issued transfers below really carry the
	// subscription — the guard, not an empty frame, is what stops them.
	opts.PruneGrace = 5 * time.Second
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// A narrow subscription: its per-dimension copies each land on exactly
	// one matcher, so a range transfer observably moves it (a full-space
	// subscription lives everywhere and a transfer is an invisible upsert).
	narrow := []core.Range{
		{Low: 10, High: 20}, {Low: 10, High: 20}, {Low: 10, High: 20}, {Low: 10, High: 20},
	}
	aud := chaos.NewAuditor()
	aud.Subscribed(1, narrow)
	subCl, err := c.NewClient(0, func(m *core.Message, _ []core.SubscriptionID) {
		aud.Delivered(1, m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := subCl.Subscribe(narrow); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond)

	// Find a (holder, dimension) of the subscription and a target matcher
	// that does not hold it along that dimension.
	var src, dst core.NodeID
	var dim int
	ids := c.MatcherIDs()
search:
	for d := 0; d < 4; d++ {
		for _, id := range ids {
			if c.Matcher(id).LoadSnapshot()[d].Subs > 0 {
				src, dim = id, d
				break
			}
		}
		if src != 0 {
			for _, id := range ids {
				if id != src && c.Matcher(id).LoadSnapshot()[d].Subs == 0 {
					dst = id
					break search
				}
			}
			src = 0
		}
	}
	if src == 0 || dst == 0 {
		t.Fatal("no (holder, target) pair for the transfer")
	}
	dstBefore := subCount(c, dst)

	// Split src's dim segment just below the subscription, exactly as the
	// controller's SplitSegment would: the upper half — containing the
	// subscription — moves to dst, with a TransferID derived from the new
	// table version.
	tab := c.Table()
	newTab, h, err := tab.Split(dim, 5, dst)
	if err != nil {
		t.Fatalf("split table: %v", err)
	}
	if h.From != src || h.To != dst {
		t.Fatalf("split handover %+v, want %v -> %v", h, src, dst)
	}
	tid := wire.TransferRangeID(src, newTab.Version(), dim, h.Range.Low, h.Range.High)
	dstAddr, _ := c.MatcherAddr(dst)
	srcAddr, _ := c.MatcherAddr(src)
	sendTransfer := func() {
		body := (&wire.HandoverBody{
			Dim: dim, Low: h.Range.Low, High: h.Range.High, TargetAddr: dstAddr, TransferID: tid,
		}).Encode()
		c.mu.Lock()
		tr := c.matcherTr[src]
		c.mu.Unlock()
		if err := tr.Send(srcAddr, &wire.Envelope{Kind: wire.KindHandover, From: src, Body: body}); err != nil {
			t.Fatalf("send handover: %v", err)
		}
	}

	sendTransfer()
	waitFor(t, 5*time.Second, func() bool { return subCount(c, dst) == dstBefore+1 })
	c.Dispatchers()[0].SetTable(newTab)
	if err := c.WaitForTable(newTab.Version(), 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Receiver crashes mid-flow and comes back from its journal — with the
	// subscription AND the adopted transfer ID.
	if err := c.CrashMatcher(dst); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartMatcher(dst); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return subCount(c, dst) == dstBefore+1 })

	// Controller retries: identical transfer, twice. The source must still
	// hold its copy (prune grace pending) so the replays are not empty, and
	// the journal-recovered guard must drop them.
	if c.Matcher(src).LoadSnapshot()[dim].Subs == 0 {
		t.Fatal("source already pruned its copy — replayed transfers would be empty")
	}
	sendTransfer()
	sendTransfer()
	time.Sleep(300 * time.Millisecond)
	if got := subCount(c, dst); got != dstBefore+1 {
		t.Fatalf("seed %d: receiver holds %d subs after replayed transfers, want %d — double adoption",
			seed, got, dstBefore+1)
	}

	// The cluster still delivers everything it acks, through degraded links.
	degradeLinks(c, ctrl, chaos.LinkFaults{Drop: 0.1, Duplicate: 0.1,
		DelayMin: time.Millisecond, DelayMax: 3 * time.Millisecond})
	pubCl, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	const burst = 80
	for i := 0; i < burst; i++ {
		token := fmt.Sprintf("xfer-%03d", i)
		attrs := []float64{10 + float64((i*37)%100)/10, 10 + float64((i*59)%100)/10,
			10 + float64((i*83)%100)/10, 10 + float64((i*101)%100)/10}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			t.Fatalf("publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs)
		time.Sleep(time.Millisecond)
	}
	if err := aud.WaitComplete(20 * time.Second); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
}
