package index

import (
	"math/rand"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/workload"
)

// A set mixing predicate widths — sub-bucket, one bucket, exactly and just
// over the wide threshold, and intervals hanging over either end of the
// dimension — answers like the scan oracle under churn that reuses slots and
// re-adds live IDs with new predicates.
func TestBucketMixedWidthEquivalence(t *testing.T) {
	const extent = 1000.0
	oneBucket := extent / DefaultBuckets
	widths := []float64{0.5, oneBucket, wideThreshold * extent, wideThreshold*extent + 0.001}
	rng := rand.New(rand.NewSource(11))
	pred := func() core.Range {
		switch rng.Intn(6) {
		case 0: // overhangs Min
			hi := rng.Float64() * 60
			return core.Range{Low: hi - 10 - rng.Float64()*100, High: hi}
		case 1: // overhangs Max
			lo := extent - rng.Float64()*60
			return core.Range{Low: lo, High: lo + 10 + rng.Float64()*100}
		default:
			w := widths[rng.Intn(len(widths))]
			lo := rng.Float64() * extent
			if rng.Intn(8) == 0 { // start on a bucket boundary
				lo = float64(rng.Intn(DefaultBuckets)) * oneBucket
			}
			return core.Range{Low: lo, High: lo + w}
		}
	}
	mk := func(id core.SubscriptionID) *core.Subscription {
		s := core.NewSubscription(core.SubscriberID(id), []core.Range{pred(), {Low: 0, High: extent}, {Low: 0, High: extent}})
		s.ID = id
		return s
	}
	probe := func() float64 {
		if rng.Intn(10) == 0 {
			return -50 + rng.Float64()*(extent+100) // outside the dimension too
		}
		if rng.Intn(4) == 0 {
			return float64(rng.Intn(DefaultBuckets+1)) * oneBucket
		}
		return rng.Float64() * extent
	}
	ref, x := NewScan(0), New(KindBucket, testSpace, 0).(*Bucket)
	var live []core.SubscriptionID
	nextID := core.SubscriptionID(1)
	for step := 0; step < 6000; step++ {
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0:
			s := mk(nextID)
			nextID++
			live = append(live, s.ID)
			ref.Add(s)
			x.Add(s)
		case op < 6: // remove; the freed slot is reused by a later Add
			k := rng.Intn(len(live))
			id := live[k]
			live[k] = live[len(live)-1]
			live = live[:len(live)-1]
			if ref.Remove(id) != x.Remove(id) {
				t.Fatalf("step %d: Remove(%v) presence mismatch", step, id)
			}
		case op < 7: // re-add a live ID with a new predicate
			s := mk(live[rng.Intn(len(live))])
			ref.Add(s)
			x.Add(s)
		default:
			v := probe()
			want, _ := ref.Stab(v, nil)
			got, scanned := x.Stab(v, nil)
			if !sameIDs(ids(got), ids(want)) {
				t.Fatalf("step %d: Stab(%g) = %v, want %v", step, v, ids(got), ids(want))
			}
			if scanned < len(got) {
				t.Fatalf("step %d: scanned %d < |answer| %d", step, scanned, len(got))
			}
			lo := probe()
			r := core.Range{Low: lo, High: lo + rng.Float64()*300}
			if got, want := ids(x.Overlapping(r, nil)), ids(ref.Overlapping(r, nil)); !sameIDs(got, want) {
				t.Fatalf("step %d: Overlapping(%v) = %v, want %v", step, r, got, want)
			}
		}
		if x.Len() != ref.Len() {
			t.Fatalf("step %d: Len = %d, want %d", step, x.Len(), ref.Len())
		}
	}
	if x.Remove(nextID) {
		t.Fatal("Remove of a never-added ID returned true")
	}
	if !sameIDs(ids(x.All(nil)), ids(ref.All(nil))) {
		t.Fatal("All differs from the oracle after churn")
	}
	if x.maxSpan > int(wideThreshold*DefaultBuckets)+1 {
		t.Fatalf("maxSpan %d exceeds the wide threshold's %d buckets", x.maxSpan, int(wideThreshold*DefaultBuckets))
	}
}

// On the paper workload — one predicate width per set — each stab examines
// little more than its answer: the backward window is exactly the intervals
// that can contain the value.
func TestBucketScannedNearAnswerOnPaperWorkload(t *testing.T) {
	sp := core.UniformSpace(4, 1000)
	gen := workload.New(workload.Default(sp))
	x := New(KindBucket, sp, 0)
	for _, s := range gen.Subscriptions(5000) {
		x.Add(s)
	}
	rng := rand.New(rand.NewSource(3))
	var scanned, answers int
	for q := 0; q < 500; q++ {
		got, n := x.Stab(rng.Float64()*1000, nil)
		scanned += n
		answers += len(got)
	}
	if float64(scanned) > 1.1*float64(answers) {
		t.Fatalf("500 stabs scanned %d entries for %d answers: more than 10%% over", scanned, answers)
	}
}

// All walks the slab in slot order: two indexes built by the same sequence of
// adds, removes and re-adds enumerate in the same order.
func TestBucketAllOrderDeterministic(t *testing.T) {
	build := func() []core.SubscriptionID {
		rng := rand.New(rand.NewSource(5))
		x := New(KindBucket, testSpace, 1)
		for i := 1; i <= 400; i++ {
			x.Add(randSub(rng, core.SubscriptionID(i), 200))
			if i%3 == 0 {
				x.Remove(core.SubscriptionID(rng.Intn(i) + 1))
			}
			if i%7 == 0 {
				x.Add(randSub(rng, core.SubscriptionID(rng.Intn(i)+1), 200))
			}
		}
		var out []core.SubscriptionID
		for _, s := range x.All(nil) {
			out = append(out, s.ID)
		}
		return out
	}
	a, b := build(), build()
	if len(a) == 0 || !sameIDs(a, b) {
		t.Fatalf("All order differs between identical builds:\n%v\n%v", a, b)
	}
}
