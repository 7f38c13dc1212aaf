package index

import (
	"math"
	"math/rand"
	"sync"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/workload"
)

// A set mixing predicate widths — sub-cell, one cell, a quarter of the extent
// and just over — and intervals hanging over either end of the dimension
// answers like the scan oracle under churn that reuses slots and re-adds live
// IDs with new predicates.
func TestBucketMixedWidthEquivalence(t *testing.T) {
	const extent = 1000.0
	oneCell := extent / DefaultBuckets
	widths := []float64{0.5, oneCell, 0.25 * extent, 0.25*extent + 0.001}
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
			if rng.Intn(8) == 0 { // start on a cell boundary
				lo = float64(rng.Intn(DefaultBuckets)) * oneCell
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
			return float64(rng.Intn(DefaultBuckets+1)) * oneCell
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
}

// checkHits fails t unless MatchHits answers m with Match's answer mapped to
// (ID, Subscriber), in the same slot order and with the same scanned count: a
// slot's inline pair must follow every Add that fills or refills it.
func checkHits(t *testing.T, x *Bucket, m *core.Message) {
	t.Helper()
	subs, _, scanned := Match(x, m, nil, nil)
	hits, hscanned := x.MatchHits(m, nil)
	if hscanned != scanned || len(hits) != len(subs) {
		t.Fatalf("MatchHits(%v): %d hits over %d verified, Match %d over %d", m.Attrs, len(hits), hscanned, len(subs), scanned)
	}
	for i, s := range subs {
		if want := (Hit{ID: s.ID, Subscriber: s.Subscriber}); hits[i] != want {
			t.Fatalf("MatchHits(%v)[%d] = %+v, Match has %+v", m.Attrs, i, hits[i], want)
		}
	}
}

// center returns the message at the midpoint of s's cuboid, which s matches.
func center(s *core.Subscription) *core.Message {
	attrs := make([]float64, len(s.Predicates))
	for d, r := range s.Predicates {
		attrs[d] = r.Low + (r.High-r.Low)/2
	}
	return core.NewMessage(attrs, nil)
}

// Match returns the scan oracle's answer as a set, having verified at least
// that many cuboids, under churn that mixes widths on every dimension
// (sub-cell, one cell, a quarter of the extent and just over, overhanging
// either end, reaching far past Max, wholly outside), copies live cuboids
// exactly or shrunk inside them so that many IDs share cells, reuses slots and
// re-adds live IDs under a new subscriber, probed with attributes inside,
// outside and NaN on every dimension. At every probe, and after every Add at
// the centre of the cuboid it stored, MatchHits agrees with Match pair for
// pair. Once the index is drained, nothing survives the bitsets.
func TestBucketMatchEqualsScanOracle(t *testing.T) {
	const extent = 1000.0
	oneCell := extent / DefaultBuckets
	widths := []float64{0.5, oneCell, 0.25 * extent, 0.25*extent + 0.001}
	for dim := 0; dim < testSpace.K(); dim++ {
		rng := rand.New(rand.NewSource(int64(21 + dim)))
		pred := func() core.Range {
			switch rng.Intn(10) {
			case 0: // overhangs Min
				hi := rng.Float64() * 60
				return core.Range{Low: hi - 10 - rng.Float64()*100, High: hi}
			case 1: // overhangs Max
				lo := extent - rng.Float64()*60
				return core.Range{Low: lo, High: lo + 10 + rng.Float64()*100}
			case 2: // wholly outside, below or above
				if rng.Intn(2) == 0 {
					return core.Range{Low: -300, High: -100}
				}
				return core.Range{Low: extent + 100, High: extent + 300}
			case 3: // "at least": a High far beyond any cell number
				return core.Range{Low: rng.Float64() * extent, High: 1e300}
			case 4, 5:
				lo := rng.Float64()*extent - 100
				return core.Range{Low: lo, High: lo + 100 + rng.Float64()*700}
			default:
				w := widths[rng.Intn(len(widths))]
				lo := rng.Float64() * extent
				if rng.Intn(8) == 0 { // start on a cell boundary
					lo = float64(rng.Intn(DefaultBuckets)) * oneCell
				}
				return core.Range{Low: lo, High: lo + w}
			}
		}
		var live []core.SubscriptionID
		cuboid := make(map[core.SubscriptionID][]core.Range) // by live ID
		// mk draws a fresh cuboid, or one that shares cells with a live
		// subscription: its exact copy, or the copy shrunk inside it by up to
		// a tenth of its width on each side.
		mk := func(id core.SubscriptionID, sub core.SubscriberID) *core.Subscription {
			preds := make([]core.Range, testSpace.K())
			switch op := rng.Intn(8); {
			case op < 2 && len(live) > 0:
				copy(preds, cuboid[live[rng.Intn(len(live))]])
				if op == 1 {
					for d, r := range preds {
						w := math.Min(r.Length(), extent)
						preds[d] = core.Range{Low: r.Low + 0.1*w*rng.Float64(), High: r.High - 0.1*w*rng.Float64()}
					}
				}
			default:
				for d := range preds {
					preds[d] = pred()
				}
			}
			cuboid[id] = preds
			s := core.NewSubscription(sub, preds)
			s.ID = id
			return s
		}
		attr := func() float64 {
			switch rng.Intn(12) {
			case 0:
				return math.NaN()
			case 1:
				return -200 + rng.Float64()*150 // below the dimension
			case 2:
				return extent + rng.Float64()*250 // at or above Max
			case 3:
				return float64(rng.Intn(DefaultBuckets+1)) * oneCell
			default:
				return rng.Float64() * extent
			}
		}
		ref, x := NewScan(dim), New(KindBucket, testSpace, dim).(*Bucket)
		nextID := core.SubscriptionID(1)
		matches := 0
		for step := 0; step < 8000; step++ {
			// Every Add names a subscriber no earlier Add used, so a slot
			// refilled by another ID, or a live ID re-added, changes its pair.
			sub := core.SubscriberID(step + 1)
			switch op := rng.Intn(10); {
			case op < 4 || len(live) == 0:
				s := mk(nextID, sub)
				nextID++
				live = append(live, s.ID)
				ref.Add(s)
				x.Add(s)
				checkHits(t, x, center(s))
			case op < 6: // remove; the freed slot is reused by a later Add
				k := rng.Intn(len(live))
				ref.Remove(live[k])
				if !x.Remove(live[k]) {
					t.Fatalf("dim %d step %d: Remove(%v) of a live ID returned false", dim, step, live[k])
				}
				delete(cuboid, live[k])
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
			case op < 7: // re-add a live ID with a new cuboid and subscriber
				s := mk(live[rng.Intn(len(live))], sub)
				ref.Add(s)
				x.Add(s)
				checkHits(t, x, center(s))
			default:
				attrs := make([]float64, testSpace.K())
				for d := range attrs {
					attrs[d] = attr()
				}
				m := core.NewMessage(attrs, nil)
				got, _, scanned := Match(x, m, nil, nil)
				want, _, _ := Match(ref, m, nil, nil)
				if !sameIDs(ids(got), ids(want)) {
					t.Fatalf("dim %d step %d: Match(%v) = %v, oracle %v", dim, step, attrs, ids(got), ids(want))
				}
				if scanned < len(got) {
					t.Fatalf("dim %d step %d: scanned %d < |answer| %d", dim, step, scanned, len(got))
				}
				checkHits(t, x, m)
				matches += len(got)
			}
		}
		if matches < 1000 {
			t.Fatalf("dim %d: only %d matches over the run; the probes do not exercise the verify", dim, matches)
		}
		for _, id := range live {
			x.Remove(id)
		}
		m := core.NewMessage([]float64{500, 500, 500}, nil)
		if _, _, scanned := Match(x, m, nil, nil); scanned != 0 {
			t.Fatalf("dim %d: drained index still verifies %d cuboids", dim, scanned)
		}
		if _, scanned := x.Stab(500, nil); scanned != 0 {
			t.Fatalf("dim %d: drained index still stabs %d entries", dim, scanned)
		}
	}
}

// Match, Stab and Overlapping only read the index, so any number of readers
// may share it (a matcher shard holds a read lock for exactly this).
func TestBucketConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	x := New(KindBucket, testSpace, 0)
	for i := 1; i <= 2000; i++ {
		x.Add(randSub(rng, core.SubscriptionID(i), 300))
	}
	type probe struct {
		m       *core.Message
		r       core.Range
		match   []core.SubscriptionID
		stab    []core.SubscriptionID
		overlap []core.SubscriptionID
	}
	probes := make([]probe, 64)
	for i := range probes {
		p := &probe{m: core.NewMessage([]float64{rng.Float64() * 1000, rng.Float64() * 1000, rng.Float64() * 1000}, nil)}
		lo := rng.Float64() * 1000
		p.r = core.Range{Low: lo, High: lo + rng.Float64()*200}
		got, _, _ := Match(x, p.m, nil, nil)
		p.match = ids(got)
		got, _ = x.Stab(p.m.Attrs[0], nil)
		p.stab = ids(got)
		p.overlap = ids(x.Overlapping(p.r, nil))
		probes[i] = *p
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var dst, cands []*core.Subscription
			for round := 0; round < 10; round++ {
				for i := range probes {
					p := &probes[(i+g)%len(probes)]
					dst, cands, _ = Match(x, p.m, dst[:0], cands)
					if !sameIDs(ids(dst), p.match) {
						t.Errorf("reader %d: Match differs from the serial answer", g)
						return
					}
					if got, _ := x.Stab(p.m.Attrs[0], nil); !sameIDs(ids(got), p.stab) {
						t.Errorf("reader %d: Stab differs from the serial answer", g)
						return
					}
					if !sameIDs(ids(x.Overlapping(p.r, nil)), p.overlap) {
						t.Errorf("reader %d: Overlapping differs from the serial answer", g)
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// On the paper workload each stab examines little more than its answer: a
// cell is a sixteenth of a predicate's width, so its row holds little beyond
// the predicates containing the value.
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

// On the paper workload — every predicate a quarter of its dimension — the
// AND of the k cell rows leaves about the answer to verify, where a stab on
// one dimension would leave a quarter of the set.
func TestBucketSurvivorsNearAnswerOnPaperWorkload(t *testing.T) {
	sp := core.UniformSpace(4, 1000)
	gen := workload.New(workload.Default(sp))
	x := New(KindBucket, sp, 0)
	for _, s := range gen.Subscriptions(40000) {
		x.Add(s)
	}
	rng := rand.New(rand.NewSource(4))
	var scanned, answers int
	var dst, cands []*core.Subscription
	for q := 0; q < 500; q++ {
		m := core.NewMessage([]float64{rng.Float64() * 1000, rng.Float64() * 1000,
			rng.Float64() * 1000, rng.Float64() * 1000}, nil)
		var n int
		dst, cands, n = Match(x, m, dst[:0], cands)
		scanned += n
		answers += len(dst)
	}
	if answers == 0 || float64(scanned) > 1.5*float64(answers) {
		t.Fatalf("500 matches verified %d cuboids for %d answers: more than 1.5x", scanned, answers)
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
