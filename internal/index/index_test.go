package index

import (
	"math/rand"
	"sort"
	"testing"

	"bluedove/internal/core"
)

var testSpace = core.UniformSpace(3, 1000)

func allKinds(t *testing.T, dim int) map[string]Index {
	t.Helper()
	return map[string]Index{
		"scan":         New(KindScan, testSpace, dim),
		"bucket":       New(KindBucket, testSpace, dim),
		"intervaltree": New(KindIntervalTree, testSpace, dim),
	}
}

func randSub(rng *rand.Rand, id core.SubscriptionID, maxLen float64) *core.Subscription {
	preds := make([]core.Range, testSpace.K())
	for i := range preds {
		lo := rng.Float64() * 1000
		preds[i] = core.Range{Low: lo, High: lo + rng.Float64()*maxLen + 0.01}
	}
	s := core.NewSubscription(core.SubscriberID(id), preds)
	s.ID = id
	return s
}

func ids(subs []*core.Subscription) []core.SubscriptionID {
	out := make([]core.SubscriptionID, len(subs))
	for i, s := range subs {
		out[i] = s.ID
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

func sameIDs(a, b []core.SubscriptionID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestKindString(t *testing.T) {
	if KindScan.String() != "scan" || KindBucket.String() != "bucket" ||
		KindIntervalTree.String() != "intervaltree" || Kind(9).String() == "" {
		t.Error("Kind.String")
	}
}

func TestNewUnknownKindPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with unknown kind did not panic")
		}
	}()
	New(Kind(42), testSpace, 0)
}

func TestStabBasic(t *testing.T) {
	for name, idx := range allKinds(t, 0) {
		a := core.NewSubscription(1, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 1000}, {Low: 0, High: 1000}})
		a.ID = 1
		b := core.NewSubscription(2, []core.Range{{Low: 50, High: 60}, {Low: 0, High: 1000}, {Low: 0, High: 1000}})
		b.ID = 2
		idx.Add(a)
		idx.Add(b)
		if idx.Len() != 2 {
			t.Fatalf("%s: Len = %d, want 2", name, idx.Len())
		}
		got, scanned := idx.Stab(55, nil)
		if !sameIDs(ids(got), []core.SubscriptionID{1, 2}) {
			t.Errorf("%s: Stab(55) = %v, want both", name, ids(got))
		}
		if scanned < len(got) {
			t.Errorf("%s: scanned %d < results %d", name, scanned, len(got))
		}
		got, _ = idx.Stab(75, nil)
		if !sameIDs(ids(got), []core.SubscriptionID{1}) {
			t.Errorf("%s: Stab(75) = %v, want [1]", name, ids(got))
		}
		got, _ = idx.Stab(100, nil) // exclusive upper bound
		if len(got) != 0 {
			t.Errorf("%s: Stab(100) = %v, want empty", name, ids(got))
		}
		got, _ = idx.Stab(0, nil) // inclusive lower bound
		if !sameIDs(ids(got), []core.SubscriptionID{1}) {
			t.Errorf("%s: Stab(0) = %v, want [1]", name, ids(got))
		}
	}
}

func TestAddReplacesSameID(t *testing.T) {
	for name, idx := range allKinds(t, 0) {
		s1 := core.NewSubscription(1, []core.Range{{Low: 0, High: 10}, {Low: 0, High: 1}, {Low: 0, High: 1}})
		s1.ID = 7
		s2 := core.NewSubscription(1, []core.Range{{Low: 500, High: 510}, {Low: 0, High: 1}, {Low: 0, High: 1}})
		s2.ID = 7
		idx.Add(s1)
		idx.Add(s2)
		if idx.Len() != 1 {
			t.Fatalf("%s: Len = %d after replace, want 1", name, idx.Len())
		}
		if got, _ := idx.Stab(5, nil); len(got) != 0 {
			t.Errorf("%s: old entry still stabs", name)
		}
		if got, _ := idx.Stab(505, nil); len(got) != 1 {
			t.Errorf("%s: new entry missing", name)
		}
	}
}

func TestRemove(t *testing.T) {
	for name, idx := range allKinds(t, 1) {
		rng := rand.New(rand.NewSource(1))
		var kept []*core.Subscription
		for i := 1; i <= 100; i++ {
			s := randSub(rng, core.SubscriptionID(i), 300)
			idx.Add(s)
			if i%2 == 0 {
				kept = append(kept, s)
			}
		}
		for i := 1; i <= 100; i += 2 {
			if !idx.Remove(core.SubscriptionID(i)) {
				t.Fatalf("%s: Remove(%d) = false", name, i)
			}
		}
		if idx.Remove(1) {
			t.Errorf("%s: double remove returned true", name)
		}
		if idx.Remove(999) {
			t.Errorf("%s: removing absent ID returned true", name)
		}
		if idx.Len() != 50 {
			t.Fatalf("%s: Len = %d, want 50", name, idx.Len())
		}
		want := ids(kept)
		if got := ids(idx.All(nil)); !sameIDs(got, want) {
			t.Errorf("%s: All after removals mismatch", name)
		}
	}
}

func TestOverlapping(t *testing.T) {
	for name, idx := range allKinds(t, 2) {
		mk := func(id core.SubscriptionID, lo, hi float64) *core.Subscription {
			s := core.NewSubscription(1, []core.Range{{Low: 0, High: 1}, {Low: 0, High: 1}, {Low: lo, High: hi}})
			s.ID = id
			return s
		}
		idx.Add(mk(1, 0, 100))
		idx.Add(mk(2, 100, 200))
		idx.Add(mk(3, 150, 900)) // wide for bucket index
		idx.Add(mk(4, 950, 999))
		got := ids(idx.Overlapping(core.Range{Low: 90, High: 160}, nil))
		if !sameIDs(got, []core.SubscriptionID{1, 2, 3}) {
			t.Errorf("%s: Overlapping = %v, want [1 2 3]", name, got)
		}
		got = ids(idx.Overlapping(core.Range{Low: 905, High: 940}, nil))
		if len(got) != 0 {
			t.Errorf("%s: Overlapping gap = %v, want empty", name, got)
		}
	}
}

// Property: bucket and interval tree agree with brute-force scan under
// random churn (adds, removes, stabs).
func TestEquivalenceUnderChurn(t *testing.T) {
	for _, dim := range []int{0, 1, 2} {
		ref := NewScan(dim)
		under := map[string]Index{
			"bucket":       New(KindBucket, testSpace, dim),
			"intervaltree": New(KindIntervalTree, testSpace, dim),
		}
		rng := rand.New(rand.NewSource(int64(7 + dim)))
		nextID := core.SubscriptionID(1)
		live := []*core.Subscription{}
		for step := 0; step < 3000; step++ {
			switch op := rng.Intn(10); {
			case op < 5 || len(live) == 0: // add (wide ranges sometimes)
				maxLen := 200.0
				if rng.Intn(5) == 0 {
					maxLen = 1200 // exceed wide threshold / extend past dimension
				}
				s := randSub(rng, nextID, maxLen)
				nextID++
				live = append(live, s)
				ref.Add(s)
				for _, u := range under {
					u.Add(s)
				}
			case op < 7: // remove
				i := rng.Intn(len(live))
				id := live[i].ID
				live[i] = live[len(live)-1]
				live = live[:len(live)-1]
				if !ref.Remove(id) {
					t.Fatal("ref remove failed")
				}
				for name, u := range under {
					if !u.Remove(id) {
						t.Fatalf("%s: remove %v failed", name, id)
					}
				}
			default: // stab + overlap query
				v := rng.Float64() * 1000
				want, _ := ref.Stab(v, nil)
				for name, u := range under {
					got, scanned := u.Stab(v, nil)
					if !sameIDs(ids(got), ids(want)) {
						t.Fatalf("step %d dim %d %s: Stab(%g) = %v, want %v",
							step, dim, name, v, ids(got), ids(want))
					}
					if scanned < len(got) {
						t.Fatalf("%s: scanned < |answer|", name)
					}
				}
				lo := rng.Float64() * 1000
				r := core.Range{Low: lo, High: lo + rng.Float64()*300}
				if r.Empty() {
					continue
				}
				wantO := ids(ref.Overlapping(r, nil))
				for name, u := range under {
					gotO := ids(u.Overlapping(r, nil))
					if !sameIDs(gotO, wantO) {
						t.Fatalf("step %d %s: Overlapping(%v) = %v, want %v", step, name, r, gotO, wantO)
					}
				}
			}
			if ref.Len() != len(live) {
				t.Fatal("ref length drift")
			}
			for name, u := range under {
				if u.Len() != len(live) {
					t.Fatalf("%s: Len = %d, want %d", name, u.Len(), len(live))
				}
			}
		}
	}
}

func TestMatchVerifiesOtherDims(t *testing.T) {
	for name, idx := range allKinds(t, 0) {
		// Matches on dim 0 but not dim 1.
		s := core.NewSubscription(1, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 10}, {Low: 0, High: 1000}})
		s.ID = 1
		// Full match.
		s2 := core.NewSubscription(2, []core.Range{{Low: 0, High: 100}, {Low: 0, High: 1000}, {Low: 0, High: 1000}})
		s2.ID = 2
		idx.Add(s)
		idx.Add(s2)
		m := core.NewMessage([]float64{50, 500, 500}, nil)
		got, _, scanned := Match(idx, m, nil, nil)
		if !sameIDs(ids(got), []core.SubscriptionID{2}) {
			t.Errorf("%s: Match = %v, want [2]", name, ids(got))
		}
		if scanned <= 0 {
			t.Errorf("%s: scanned = %d", name, scanned)
		}
	}
}

// Property: scanned cost of bucket and interval tree is never more than a
// small constant factor above the brute-force cost, and typically far less
// for narrow predicates.
func TestIndexCostSanity(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	scan := NewScan(0)
	bucket := New(KindBucket, testSpace, 0)
	tree := New(KindIntervalTree, testSpace, 0)
	for i := 1; i <= 5000; i++ {
		s := randSub(rng, core.SubscriptionID(i), 50)
		scan.Add(s)
		bucket.Add(s)
		tree.Add(s)
	}
	var totScan, totBucket, totTree int
	for q := 0; q < 500; q++ {
		v := rng.Float64() * 1000
		_, c := scan.Stab(v, nil)
		totScan += c
		_, c = bucket.Stab(v, nil)
		totBucket += c
		_, c = tree.Stab(v, nil)
		totTree += c
	}
	if totBucket*2 > totScan {
		t.Errorf("bucket scanned %d, scan %d: expected <50%%", totBucket, totScan)
	}
	if totTree*2 > totScan {
		t.Errorf("tree scanned %d, scan %d: expected <50%%", totTree, totScan)
	}
}

// The steady-state match hot path must not allocate: stab with a reused
// candidate buffer, verify, append into a reused destination. The bucket
// index's MatchHits, which the matchers and edges run, must not either.
func TestMatchZeroAlloc(t *testing.T) {
	for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
		idx := New(kind, testSpace, 0)
		rng := rand.New(rand.NewSource(3))
		for i := 1; i <= 500; i++ {
			idx.Add(randSub(rng, core.SubscriptionID(i), 300))
		}
		msg := core.NewMessage([]float64{500, 500, 500}, nil)
		var dst, cands []*core.Subscription
		dst, cands, _ = Match(idx, msg, dst[:0], cands) // warm capacities
		allocs := testing.AllocsPerRun(100, func() {
			dst, cands, _ = Match(idx, msg, dst[:0], cands)
		})
		if allocs != 0 {
			t.Errorf("%s: %v allocs/op on the match hot path, want 0", kind, allocs)
		}
		if b, ok := idx.(*Bucket); ok {
			hits, _ := b.MatchHits(msg, nil) // warm the capacity
			if allocs := testing.AllocsPerRun(100, func() {
				hits, _ = b.MatchHits(msg, hits[:0])
			}); allocs != 0 {
				t.Errorf("MatchHits: %v allocs/op, want 0", allocs)
			}
		}
	}
}
