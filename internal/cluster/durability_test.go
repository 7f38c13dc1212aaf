package cluster

import (
	"fmt"
	"os"
	"strconv"
	"testing"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/core"
	"bluedove/internal/store"
)

// durableOptions is fastOptions plus a journal under dir, with failure
// detection slowed way down so a crash/restart cycle completes without the
// segment table changing — the restarted node must come back from its
// journal, not from recovery reassignment.
func durableOptions(n int, dir string) Options {
	opts := fastOptions(n)
	opts.Persistent = true
	opts.RetryInterval = 100 * time.Millisecond
	opts.DataDir = dir
	opts.Fsync = store.FsyncAlways
	opts.FailAfter = 30 * time.Second
	opts.RecoveryDelay = 30 * time.Second
	return opts
}

// victimPoint builds a publication point owned by the victim matcher on
// every dimension: nothing can match it while the victim is down, and no
// other matcher can ack it on the victim's behalf.
func victimPoint(t *testing.T, c *Cluster, victim core.NodeID) []float64 {
	t.Helper()
	tab := c.Table()
	attrs := make([]float64, 4)
	for d := 0; d < 4; d++ {
		found := false
		for _, v := range []float64{125, 375, 625, 875} {
			probe := []float64{500, 500, 500, 500}
			probe[d] = v
			for _, cand := range tab.CandidatesFor(core.NewMessage(probe, nil)) {
				if cand.Dim == d && cand.Node == victim {
					attrs[d], found = v, true
				}
			}
			if found {
				break
			}
		}
		if !found {
			t.Fatalf("victim %v owns no probed segment on dim %d", victim, d)
		}
	}
	return attrs
}

// TestDurableMatcherRestartKeepsSubscriptions: the straight-line durability
// check — a matcher with a data dir is crashed and restarted, and its
// subscription set must come back from its journal alone (the segment table
// never changes, so no dispatcher re-registration happens).
func TestDurableMatcherRestartKeepsSubscriptions(t *testing.T) {
	c, err := Start(durableOptions(4, t.TempDir()))
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
	victim := c.MatcherIDs()[0]
	waitFor(t, 5*time.Second, func() bool { return c.Matcher(victim).SubsOnDim(0) == 1 })

	if err := c.CrashMatcher(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartMatcher(victim); err != nil {
		t.Fatal(err)
	}
	m := c.Matcher(victim)
	if got := m.SubsOnDim(0); got != 1 {
		t.Fatalf("restarted matcher rebuilt %d subscriptions, want 1", got)
	}
	if m.Journal() == nil || m.Journal().Recovery().Records == 0 {
		t.Fatal("restart replayed no journal records — the subscription came from somewhere else")
	}
}

// TestChaosRestartWithRecoveryZeroAckedLoss is the durability headline: a
// matcher is killed mid-burst, and the burst deliberately includes orphan
// publications owned by that matcher on every dimension — they cannot be
// delivered or acked until it returns. Then the publisher's dispatcher is
// killed too, with those orphans sitting unacked in its pending table. Both
// nodes restart from their data dirs; the dispatcher must recover the
// orphans from its journal and retransmit, and the matcher must recover its
// subscription set from its journal (the table never changes, so nothing
// re-registers it). Every acked publication must still be delivered.
// The seed is randomized per run and printed; set CHAOS_SEED to replay.
func TestChaosRestartWithRecoveryZeroAckedLoss(t *testing.T) {
	seed := time.Now().UnixNano()
	if s := os.Getenv("CHAOS_SEED"); s != "" {
		v, err := strconv.ParseInt(s, 10, 64)
		if err != nil {
			t.Fatalf("bad CHAOS_SEED %q: %v", s, err)
		}
		seed = v
	}
	t.Logf("chaos seed %d (re-run with CHAOS_SEED=%d)", seed, seed)

	ctrl := chaos.NewController(seed)
	defer ctrl.Close()
	opts := durableOptions(4, t.TempDir())
	opts.Chaos = ctrl
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
	waitFor(t, 5*time.Second, func() bool {
		for _, id := range c.MatcherIDs() {
			for d := 0; d < 4; d++ {
				if c.Matcher(id).SubsOnDim(d) != 1 {
					return false
				}
			}
		}
		return true
	})

	victim := c.MatcherIDs()[0]
	orphan := victimPoint(t, c, victim)
	// The invariant covers AckPublish acks only (ack ⇒ journaled): a nil
	// return from a fire-and-forget Publish says nothing about a publication
	// still between the dispatcher's socket read and its journal append.
	pubCl, err := c.NewAckClient(1)
	if err != nil {
		t.Fatal(err)
	}

	killAt := time.Time{}
	run := chaos.NewScenario().
		At(100 * time.Millisecond).Do(func() {
		killAt = time.Now()
		if err := c.CrashMatcher(victim); err != nil {
			t.Errorf("crash matcher %v: %v", victim, err)
		}
	}).Run(ctrl)
	defer run.Stop()

	const burst = 150
	for i := 0; i < burst; i++ {
		token := fmt.Sprintf("dur-%03d", i)
		attrs := []float64{float64((i * 37) % 1000), float64((i * 59) % 1000),
			float64((i * 83) % 1000), float64((i * 101) % 1000)}
		if i%10 == 5 {
			attrs = orphan // only the crashed victim can match these
		}
		if err := pubCl.Publish(attrs, []byte(token)); err != nil {
			t.Fatalf("publish %d rejected: %v", i, err)
		}
		aud.Published(token, attrs) // acked: the invariant now covers it
		time.Sleep(time.Millisecond)
	}
	run.Wait()
	if killAt.IsZero() {
		t.Fatal("scenario never killed the victim")
	}

	// Let the surviving matchers ack what they can match; the orphans stay
	// pending against the dead victim.
	pubDisp := c.Dispatchers()[1]
	waitFor(t, 5*time.Second, func() bool {
		n := pubDisp.InflightLen()
		return n > 0 && n <= burst/10+1
	})
	pending := pubDisp.InflightLen()

	// Now lose the publisher's dispatcher with those orphans unacked.
	if err := c.CrashDispatcher(1); err != nil {
		t.Fatal(err)
	}
	// Downtime publishes are refused at the client, so the at-least-once
	// invariant never covers them.
	if err := pubCl.Publish(orphan, []byte("while-down")); err == nil {
		t.Fatal("publish to a crashed dispatcher unexpectedly accepted")
	}
	time.Sleep(200 * time.Millisecond)

	if err := c.RestartMatcher(victim); err != nil {
		t.Fatal(err)
	}
	if err := c.RestartDispatcher(1); err != nil {
		t.Fatal(err)
	}

	// Both recoveries must actually have replayed state.
	if rec := c.Matcher(victim).Journal().Recovery(); rec.Records == 0 && !rec.SnapshotLoaded {
		t.Fatal("restarted matcher recovered nothing from its journal")
	}
	d2 := c.Dispatchers()[1]
	if got := d2.InflightLen(); got < pending {
		t.Fatalf("restarted dispatcher recovered %d pending publications, want >= %d", got, pending)
	}

	if err := aud.WaitComplete(20 * time.Second); err != nil {
		t.Fatalf("seed %d: %v", seed, err)
	}
	if got, want := aud.Expected(), burst; got != want {
		t.Fatalf("auditor expected %d deliveries, want %d", got, want)
	}
	gap, resumedAt := aud.FirstDeliveryGap(killAt)
	t.Logf("seed %d: %d/%d acked publications delivered through a matcher+dispatcher "+
		"crash/restart (%d recovered pending, %d duplicate deliveries); longest stall %v (resumed %v after kill)",
		seed, burst, burst, pending, aud.Duplicates(), gap, resumedAt.Sub(killAt))

	if err := c.WaitConverged(10 * time.Second); err != nil {
		t.Fatal(err)
	}
}
