package cluster

import (
	"fmt"
	"math/rand"
	"strconv"
	"sync"
	"testing"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/client"
	"bluedove/internal/core"
)

func fedOptions(matchers int) Options {
	o := fastOptions(matchers)
	o.FedSummaryInterval = 50 * time.Millisecond
	return o
}

// waitFor polls cond until it holds or the timeout elapses.
func fedWaitFor(t *testing.T, timeout time.Duration, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

// fedRecorder collects deliveries by payload (cross-cluster message IDs are
// reassigned on injection, so payloads are the stable identity).
type fedRecorder struct {
	mu   sync.Mutex
	seen map[string]int
}

func newFedRecorder() *fedRecorder { return &fedRecorder{seen: map[string]int{}} }

func (r *fedRecorder) onDeliver(m *core.Message, _ []core.SubscriptionID) {
	r.mu.Lock()
	r.seen[string(m.Payload)]++
	r.mu.Unlock()
}

func (r *fedRecorder) count(payload string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen[payload]
}

func (r *fedRecorder) total() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := 0
	for _, c := range r.seen {
		n += c
	}
	return n
}

// TestFederationRouting proves the basic cross-cluster path: a subscriber in
// cluster 2, a publisher in cluster 1, delivery across the border tier.
func TestFederationRouting(t *testing.T) {
	f, err := StartFederated(2, fedOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitForTables(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rec := newFedRecorder()
	sub, err := f.Clusters[1].NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe([]core.Range{{Low: 100, High: 200}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		t.Fatal(err)
	}

	// Cluster 1's border must learn cluster 2's interest before routing.
	b1 := f.Clusters[0].Borders()[0]
	remote := f.Clusters[1].BorderAddrs()[0]
	fedWaitFor(t, 5*time.Second, "cluster 2 summary at cluster 1", func() bool {
		s := b1.RemoteSummary(remote)
		return s != nil && s.Matches([]float64{150, 500, 500, 500})
	})

	pub, err := f.Clusters[0].NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Publish until one lands: the border's aggregated subscription needs a
	// table-propagation round trip after the summary arrives.
	fedWaitFor(t, 10*time.Second, "cross-cluster delivery", func() bool {
		if err := pub.Publish([]float64{150, 500, 500, 500}, []byte("xc")); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return rec.count("xc") > 0
	})

	// Disjoint publications stay home: nothing in cluster 2 wants dim0=900.
	before := rec.total()
	for i := 0; i < 20; i++ {
		if err := pub.Publish([]float64{900, 500, 500, 500}, []byte(fmt.Sprintf("miss-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	time.Sleep(300 * time.Millisecond)
	if got := rec.total(); got != before {
		t.Fatalf("disjoint publications crossed the border: %d deliveries appeared", got-before)
	}
	if b1.FedForwarded.Value() == 0 {
		t.Fatal("border forwarded nothing")
	}
}

// TestFederationEquivalence checks the federation's core property: the set
// of (subscriber predicate, publication) deliveries in a two-cluster
// federation equals the delivery set of one flat cluster with the same
// subscriptions and publications.
func TestFederationEquivalence(t *testing.T) {
	seed := chaosSeed(t)
	rng := rand.New(rand.NewSource(seed))
	t.Logf("CHAOS_SEED=%d", seed)

	type subSpec struct {
		preds   []core.Range
		cluster int
	}
	var subs []subSpec
	// A mix of narrow and wide subscriptions across both clusters, plus a
	// nested pair (one subscription strictly inside another) that shares
	// summary intervals.
	for i := 0; i < 8; i++ {
		var preds []core.Range
		for d := 0; d < 4; d++ {
			lo := float64(rng.Intn(800))
			preds = append(preds, core.Range{Low: lo, High: lo + float64(50+rng.Intn(200))})
		}
		subs = append(subs, subSpec{preds, i % 2})
	}
	subs = append(subs,
		subSpec{[]core.Range{{Low: 100, High: 400}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}, 1},
		subSpec{[]core.Range{{Low: 150, High: 350}, {Low: 200, High: 800}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}, 1},
	)
	var pubs [][]float64
	for i := 0; i < 60; i++ {
		pubs = append(pubs, []float64{
			float64(rng.Intn(1000)), float64(rng.Intn(1000)),
			float64(rng.Intn(1000)), float64(rng.Intn(1000))})
	}

	// Brute-force oracle: which publications should reach each subscription.
	matches := func(preds []core.Range, attrs []float64) bool {
		for d, p := range preds {
			if attrs[d] < p.Low || attrs[d] >= p.High {
				return false
			}
		}
		return true
	}
	want := map[string]bool{} // "sub#/pub#"
	for si, s := range subs {
		for pi, p := range pubs {
			if matches(s.preds, p) {
				want[fmt.Sprintf("%d/%d", si, pi)] = true
			}
		}
	}

	opts := fedOptions(2)
	f, err := StartFederated(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitForTables(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	type subHandle struct {
		rec *fedRecorder
	}
	handles := make([]*subHandle, len(subs))
	for si, s := range subs {
		rec := newFedRecorder()
		cl, err := f.Clusters[s.cluster].NewClient(0, rec.onDeliver)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := cl.Subscribe(s.preds); err != nil {
			t.Fatal(err)
		}
		handles[si] = &subHandle{rec: rec}
	}

	// Both borders must cover every remote subscription before publishing,
	// or early publications legitimately miss (summaries are eventually
	// consistent; the equivalence claim is for the steady state).
	for ci := 0; ci < 2; ci++ {
		b := f.Clusters[ci].Borders()[0]
		remote := f.Clusters[1-ci].BorderAddrs()[0]
		remoteSubs := make([]subSpec, 0)
		for _, s := range subs {
			if s.cluster == 1-ci {
				remoteSubs = append(remoteSubs, s)
			}
		}
		fedWaitFor(t, 10*time.Second, fmt.Sprintf("summary convergence at cluster %d", ci+1), func() bool {
			sum := b.RemoteSummary(remote)
			if sum == nil {
				return false
			}
			for _, s := range remoteSubs {
				probe := make([]float64, 4)
				for d, p := range s.preds {
					probe[d] = (p.Low + p.High) / 2
				}
				if !sum.Matches(probe) {
					return false
				}
			}
			return true
		})
	}
	// The aggregated border subscriptions also need the local match path to
	// adopt them; give interest sync one extra cadence.
	time.Sleep(500 * time.Millisecond)

	pubClients := [2]*client.Client{}
	for ci := 0; ci < 2; ci++ {
		cl, err := f.Clusters[ci].NewClient(0, nil)
		if err != nil {
			t.Fatal(err)
		}
		pubClients[ci] = cl
	}
	for pi, p := range pubs {
		// Alternate the publishing cluster so both directions are exercised.
		if err := pubClients[pi%2].Publish(p, []byte(strconv.Itoa(pi))); err != nil {
			t.Fatal(err)
		}
	}

	fedWaitFor(t, 20*time.Second, "federated delivery set == flat oracle", func() bool {
		for si := range subs {
			for pi := range pubs {
				if want[fmt.Sprintf("%d/%d", si, pi)] && handles[si].rec.count(strconv.Itoa(pi)) == 0 {
					return false
				}
			}
		}
		return true
	})

	// No false deliveries: federation must never deliver what the oracle
	// says should not match (the remote cluster's real match path filters
	// summary false positives).
	for si := range subs {
		for pi := range pubs {
			got := handles[si].rec.count(strconv.Itoa(pi))
			if !want[fmt.Sprintf("%d/%d", si, pi)] && got > 0 {
				t.Errorf("sub %d wrongly received pub %d (%v)", si, pi, pubs[pi])
			}
		}
	}
}

// TestFederationSuppression proves summary routing suppresses disjoint
// traffic: with non-overlapping interest, nothing crosses the link.
func TestFederationSuppression(t *testing.T) {
	f, err := StartFederated(2, fedOptions(2))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitForTables(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// Cluster 2 wants only dim0 in [800, 900); cluster 1 publishes far away.
	rec := newFedRecorder()
	sub, err := f.Clusters[1].NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe([]core.Range{{Low: 800, High: 900}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		t.Fatal(err)
	}
	b1 := f.Clusters[0].Borders()[0]
	remote := f.Clusters[1].BorderAddrs()[0]
	fedWaitFor(t, 5*time.Second, "summary at cluster 1", func() bool {
		return b1.RemoteSummary(remote) != nil
	})

	// A local subscriber in cluster 1 overlapping the publications makes the
	// border's suppression observable (the publication is live locally, so
	// any cross-cluster copy would be pure waste).
	localRec := newFedRecorder()
	local, err := f.Clusters[0].NewClient(0, localRec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Subscribe([]core.Range{{Low: 0, High: 100}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		t.Fatal(err)
	}

	pub, err := f.Clusters[0].NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, 5*time.Second, "local deliveries", func() bool {
		if err := pub.Publish([]float64{50, 500, 500, 500}, []byte("home")); err != nil {
			return false
		}
		time.Sleep(10 * time.Millisecond)
		return localRec.count("home") > 0
	})
	time.Sleep(200 * time.Millisecond)
	if got := b1.FedForwarded.Value(); got != 0 {
		t.Fatalf("disjoint interest still forwarded %d publications", got)
	}
	if rec.total() != 0 {
		t.Fatalf("cluster 2 received %d deliveries it never subscribed to", rec.total())
	}
}

// TestFederationChaosLinkFlap injects a full inter-cluster partition in the
// middle of a publication burst, heals it, and requires zero acked loss:
// every publication the origin dispatcher admitted must reach the remote
// subscriber — the pending-forward queue plus FedAck settlement carries the
// flap.
func TestFederationChaosLinkFlap(t *testing.T) {
	seed := chaosSeed(t)
	t.Logf("CHAOS_SEED=%d", seed)
	ctrl := chaos.NewController(seed)

	opts := fedOptions(2)
	opts.Chaos = ctrl
	opts.Persistent = true
	f, err := StartFederated(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitForTables(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rec := newFedRecorder()
	sub, err := f.Clusters[1].NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe([]core.Range{{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		t.Fatal(err)
	}
	b1 := f.Clusters[0].Borders()[0]
	remote := f.Clusters[1].BorderAddrs()[0]
	fedWaitFor(t, 5*time.Second, "summary at cluster 1", func() bool {
		s := b1.RemoteSummary(remote)
		return s != nil && !s.Empty()
	})
	// Make sure the routed path works before injecting faults.
	pub, err := f.Clusters[0].NewAckClient(0)
	if err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, 10*time.Second, "pre-fault delivery", func() bool {
		if err := pub.Publish([]float64{500, 500, 500, 500}, []byte("warm")); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return rec.count("warm") > 0
	})

	// Burst with a partition dropped in the middle and healed later. Every
	// acked publish must eventually arrive in cluster 2.
	const burst = 120
	acked := make([]string, 0, burst)
	rng := rand.New(rand.NewSource(seed))
	for i := 0; i < burst; i++ {
		if i == burst/3 {
			if err := f.PartitionBorderLinks(0, 1, true); err != nil {
				t.Fatal(err)
			}
		}
		if i == 2*burst/3 {
			if err := f.PartitionBorderLinks(0, 1, false); err != nil {
				t.Fatal(err)
			}
		}
		payload := fmt.Sprintf("burst-%d", i)
		attrs := []float64{float64(rng.Intn(1000)), float64(rng.Intn(1000)),
			float64(rng.Intn(1000)), float64(rng.Intn(1000))}
		if err := pub.Publish(attrs, []byte(payload)); err != nil {
			// Not admitted — not acked, so not part of the loss contract.
			continue
		}
		acked = append(acked, payload)
		time.Sleep(2 * time.Millisecond)
	}
	if len(acked) == 0 {
		t.Fatal("no publications were admitted")
	}

	fedWaitFor(t, 30*time.Second, "zero acked loss across the flap", func() bool {
		for _, p := range acked {
			if rec.count(p) == 0 {
				return false
			}
		}
		return true
	})
	if b1.Retries.Value() == 0 {
		t.Log("warning: flap produced no retries (partition may have fallen between sends)")
	}
}

// TestFederationTrace requires the cross-cluster hop to appear in the remote
// cluster's recorded traces: publish → ingest → forward → federate, then
// the remote dequeue/match/deliver stamped fresh.
func TestFederationTrace(t *testing.T) {
	opts := fedOptions(2)
	opts.TraceSampleRate = 1
	f, err := StartFederated(2, opts)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if err := f.WaitForTables(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	rec := newFedRecorder()
	sub, err := f.Clusters[1].NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Subscribe([]core.Range{{Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}}); err != nil {
		t.Fatal(err)
	}
	b1 := f.Clusters[0].Borders()[0]
	remote := f.Clusters[1].BorderAddrs()[0]
	fedWaitFor(t, 5*time.Second, "summary at cluster 1", func() bool {
		s := b1.RemoteSummary(remote)
		return s != nil && !s.Empty()
	})
	pub, err := f.Clusters[0].NewClient(0, nil)
	if err != nil {
		t.Fatal(err)
	}
	fedWaitFor(t, 10*time.Second, "cross-cluster delivery", func() bool {
		if err := pub.Publish([]float64{500, 500, 500, 500}, []byte("traced")); err != nil {
			return false
		}
		time.Sleep(20 * time.Millisecond)
		return rec.count("traced") > 0
	})

	// Some matcher in cluster 2 must have recorded a trace carrying the
	// federate hop plus a complete intra-cluster path — the full
	// cross-cluster timeline /debug/traces renders.
	fedWaitFor(t, 10*time.Second, "federate hop in remote trace", func() bool {
		for _, id := range f.Clusters[1].MatcherIDs() {
			tel := f.Clusters[1].Telemetry(id)
			if tel == nil {
				continue
			}
			for _, tr := range tel.Tracer.Recent(64) {
				ctx := tr.Ctx
				if ctx.Hops[core.HopFederate] != 0 && ctx.Complete() {
					return true
				}
			}
		}
		return false
	})
}
