package partition

import (
	"math/rand"
	"testing"

	"bluedove/internal/core"
)

// TestSplit pins the hot-segment split: the upper half of the cut segment
// changes owner, the target may already own other segments, and the table
// stays valid with per-dimension segment counts diverging.
func TestSplit(t *testing.T) {
	space := core.UniformSpace(2, 900)
	tab := mustUniform(t, space, 3)
	// Dim 0 owners are [1 2 3] over [0,300) [300,600) [600,900).
	newTab, h, err := tab.Split(0, 450, 3)
	if err != nil {
		t.Fatal(err)
	}
	if err := newTab.validate(); err != nil {
		t.Fatal(err)
	}
	if h.Dim != 0 || h.From != 2 || h.To != 3 {
		t.Fatalf("handover = %v", h)
	}
	if h.Range != (core.Range{Low: 450, High: 600}) {
		t.Fatalf("handover range = %v", h.Range)
	}
	if newTab.Version() != tab.Version()+1 {
		t.Errorf("version = %d", newTab.Version())
	}
	// Matcher count unchanged, dim-0 segment count grew.
	if newTab.N() != 3 || newTab.Segments(0) != 4 || newTab.Segments(1) != 3 {
		t.Fatalf("N=%d segs=[%d %d]", newTab.N(), newTab.Segments(0), newTab.Segments(1))
	}
	// Matcher 3 now owns two dim-0 ranges: [450,600) and [600,900).
	segs, err := newTab.SegmentsOf(3, 0)
	if err != nil || len(segs) != 2 {
		t.Fatalf("SegmentsOf(3,0) = %v, %v", segs, err)
	}
	if segs[0] != (core.Range{Low: 450, High: 600}) || segs[1] != (core.Range{Low: 600, High: 900}) {
		t.Fatalf("segments = %v", segs)
	}
	// Messages in the moved range route to the new owner.
	if c := newTab.CandidateOn(core.NewMessage([]float64{500, 10}, nil), 0); c.Node != 3 {
		t.Errorf("candidate for 500 = %v, want 3", c.Node)
	}
	if c := newTab.CandidateOn(core.NewMessage([]float64{440, 10}, nil), 0); c.Node != 2 {
		t.Errorf("candidate for 440 = %v, want 2", c.Node)
	}
	// Original table untouched.
	if tab.Segments(0) != 3 {
		t.Error("Split mutated the receiver")
	}
}

func TestSplitErrors(t *testing.T) {
	space := core.UniformSpace(1, 900)
	tab := mustUniform(t, space, 3)
	if _, _, err := tab.Split(0, 450, 99); err == nil {
		t.Error("split to unknown matcher accepted")
	}
	if _, _, err := tab.Split(0, 300, 3); err == nil {
		t.Error("cut on a boundary accepted")
	}
	if _, _, err := tab.Split(0, 450, 2); err == nil {
		t.Error("split to the segment's own owner accepted")
	}
	if _, _, err := tab.Split(5, 450, 3); err == nil {
		t.Error("out-of-range dim accepted")
	}
}

// TestAssignmentsDedupeAfterSplit: a predicate spanning two segments of the
// same owner must produce one copy per (node, dim), not two.
func TestAssignmentsDedupeAfterSplit(t *testing.T) {
	space := core.UniformSpace(1, 900)
	tab := mustUniform(t, space, 3)
	// Give matcher 3 a second dim-0 range adjacent to its own: split matcher
	// 2's segment so owners run [1 2 3 3].
	tab2, _, err := tab.Split(0, 450, 3)
	if err != nil {
		t.Fatal(err)
	}
	s := core.NewSubscription(1, []core.Range{{Low: 460, High: 880}})
	s.ID = 1
	as := tab2.Assignments(s)
	seen := make(map[Assignment]int)
	for _, a := range as {
		seen[a]++
		if seen[a] > 1 {
			t.Fatalf("duplicate assignment %v in %v", a, as)
		}
	}
	if len(as) != 1 || as[0].Node != 3 {
		t.Fatalf("assignments = %v, want one copy on matcher 3", as)
	}
}

// TestLeaveAfterSplit: a matcher holding several sub-segment ranges leaves;
// every range must be absorbed and the table must stay valid.
func TestLeaveAfterSplit(t *testing.T) {
	space := core.UniformSpace(2, 900)
	tab := mustUniform(t, space, 3)
	tab2, _, err := tab.Split(0, 450, 3) // matcher 3: [450,600) and [600,900) on dim 0
	if err != nil {
		t.Fatal(err)
	}
	newTab, handovers, err := tab2.Leave(3)
	if err != nil {
		t.Fatal(err)
	}
	if err := newTab.validate(); err != nil {
		t.Fatal(err)
	}
	if newTab.N() != 2 || newTab.HasMatcher(3) {
		t.Fatalf("N=%d HasMatcher(3)=%v", newTab.N(), newTab.HasMatcher(3))
	}
	// Dim 0 had two ranges to hand over, dim 1 one.
	byDim := map[int]int{}
	for _, h := range handovers {
		if h.From != 3 {
			t.Errorf("handover from %v", h.From)
		}
		byDim[h.Dim]++
	}
	if byDim[0] != 2 || byDim[1] != 1 {
		t.Fatalf("handovers per dim = %v", byDim)
	}
}

// TestEncodeDecodeSplitTable: the wire format carries per-dimension segment
// counts, so a table with diverging counts must roundtrip exactly.
func TestEncodeDecodeSplitTable(t *testing.T) {
	space := core.UniformSpace(3, 1000)
	tab := mustUniform(t, space, 4)
	tab2, _, err := tab.Split(1, 333, 1)
	if err != nil {
		t.Fatal(err)
	}
	tab3, _, err := tab2.Split(1, 777, 2)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Decode(tab3.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Version() != tab3.Version() || got.N() != tab3.N() {
		t.Fatalf("roundtrip: %v vs %v", got, tab3)
	}
	for i := 0; i < got.K(); i++ {
		if got.Segments(i) != tab3.Segments(i) {
			t.Fatalf("dim %d segments = %d, want %d", i, got.Segments(i), tab3.Segments(i))
		}
		a, b := got.Dim(i), tab3.Dim(i)
		for j := range a.Boundaries {
			if a.Boundaries[j] != b.Boundaries[j] {
				t.Fatalf("dim %d boundary %d mismatch", i, j)
			}
		}
		for j := range a.Owners {
			if a.Owners[j] != b.Owners[j] {
				t.Fatalf("dim %d owner %d mismatch", i, j)
			}
		}
	}
}

// TestElasticChurnWithSplits extends the churn property test with splits:
// random join/leave/split sequences must preserve validity and candidate
// completeness.
func TestElasticChurnWithSplits(t *testing.T) {
	space := core.UniformSpace(3, 1000)
	tab := mustUniform(t, space, 4)
	rng := rand.New(rand.NewSource(7))
	next := core.NodeID(100)
	for step := 0; step < 300; step++ {
		switch {
		case rng.Intn(3) == 0 && tab.N() < 30:
			victims := make([]core.NodeID, tab.K())
			ms := tab.Matchers()
			for i := range victims {
				victims[i] = ms[rng.Intn(len(ms))]
			}
			if nt, _, err := tab.Join(next, victims); err == nil {
				next++
				tab = nt
			}
		case rng.Intn(3) == 1 && tab.N() > 2:
			ms := tab.Matchers()
			if nt, _, err := tab.Leave(ms[rng.Intn(len(ms))]); err == nil {
				tab = nt
			}
		default:
			dim := rng.Intn(tab.K())
			d := space.Dim(dim)
			cut := d.Min + rng.Float64()*d.Extent()
			ms := tab.Matchers()
			to := ms[rng.Intn(len(ms))]
			if nt, _, err := tab.Split(dim, cut, to); err == nil {
				tab = nt
			}
		}
		if err := tab.validate(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		if _, err := Decode(tab.Encode()); err != nil {
			t.Fatalf("step %d roundtrip: %v", step, err)
		}
		s := randSub(rng, space, 300)
		m := randMsgIn(rng, s, space)
		has := make(map[Assignment]bool)
		for _, a := range tab.Assignments(s) {
			has[a] = true
		}
		for _, c := range tab.CandidatesFor(m) {
			if !has[Assignment{Node: c.Node, Dim: c.Dim}] {
				t.Fatalf("step %d: completeness violated", step)
			}
		}
	}
}

// TestSplitPoint pins the shared median-center cut the simulator and the
// matcher both split on: centers outside the segment do not vote, fewer
// than two voters fall back to the midpoint, and input order is irrelevant.
func TestSplitPoint(t *testing.T) {
	r := core.Range{Low: 100, High: 200}
	sub := func(lo, hi float64) *core.Subscription {
		return core.NewSubscription(1, []core.Range{{Low: 0, High: 1}, {Low: lo, High: hi}})
	}
	cases := []struct {
		name string
		subs []*core.Subscription
		want float64
	}{
		{"empty", nil, 150},
		{"one voter", []*core.Subscription{sub(110, 130)}, 150},
		{"outside centers ignored", []*core.Subscription{sub(0, 100), sub(200, 300), sub(110, 130)}, 150},
		{"median", []*core.Subscription{sub(170, 190), sub(110, 130), sub(130, 150)}, 140},
		{"even count takes upper median", []*core.Subscription{sub(110, 130), sub(130, 150), sub(150, 170), sub(170, 190)}, 160},
	}
	for _, tc := range cases {
		if got := SplitPoint(tc.subs, 1, r); got != tc.want {
			t.Errorf("%s: SplitPoint = %g, want %g", tc.name, got, tc.want)
		}
	}
}
