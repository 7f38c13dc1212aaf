package forward

import (
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/partition"
)

// fakeView is an in-memory LoadView for tests.
type fakeView struct {
	loads map[core.NodeID]map[int]DimLoad
	dead  map[core.NodeID]bool
}

func newFakeView() *fakeView {
	return &fakeView{loads: make(map[core.NodeID]map[int]DimLoad), dead: make(map[core.NodeID]bool)}
}

func (v *fakeView) set(node core.NodeID, dim int, l DimLoad) {
	if v.loads[node] == nil {
		v.loads[node] = make(map[int]DimLoad)
	}
	v.loads[node][dim] = l
}

func (v *fakeView) Load(node core.NodeID, dim int) (DimLoad, bool) {
	l, ok := v.loads[node][dim]
	return l, ok
}

func (v *fakeView) Alive(node core.NodeID) bool { return !v.dead[node] }

func cands(pairs ...int) []partition.Candidate {
	out := make([]partition.Candidate, 0, len(pairs)/2)
	for i := 0; i+1 < len(pairs); i += 2 {
		out = append(out, partition.Candidate{Node: core.NodeID(pairs[i]), Dim: pairs[i+1]})
	}
	return out
}

func TestEstimatedQueue(t *testing.T) {
	l := DimLoad{QueueLen: 10, ArrivalRate: 100, MatchRate: 60, ReportedAt: 0}
	// After 1s: 10 + (100-60)*1 = 50.
	if got := l.EstimatedQueue(int64(time.Second)); got != 50 {
		t.Errorf("EstimatedQueue(1s) = %g, want 50", got)
	}
	// Draining faster than arriving floors at 0.
	l2 := DimLoad{QueueLen: 5, ArrivalRate: 10, MatchRate: 100, ReportedAt: 0}
	if got := l2.EstimatedQueue(int64(time.Second)); got != 0 {
		t.Errorf("EstimatedQueue drain = %g, want 0", got)
	}
	// Time before the report clamps dt to 0.
	if got := l.EstimatedQueue(-int64(time.Second)); got != 10 {
		t.Errorf("EstimatedQueue(past) = %g, want 10", got)
	}
}

func TestAdaptivePrefersExtrapolatedShorterQueue(t *testing.T) {
	v := newFakeView()
	// Node 1 reported a short queue but is filling fast; node 2 reported a
	// longer queue but is draining. After 2 seconds node 2 is better.
	v.set(1, 0, DimLoad{QueueLen: 10, ArrivalRate: 100, MatchRate: 50, ReportedAt: 0})
	v.set(2, 1, DimLoad{QueueLen: 60, ArrivalRate: 10, MatchRate: 50, ReportedAt: 0})
	now := int64(2 * time.Second)
	// q1(2s) = 10+50*2 = 110 → cost 111/50; q2(2s) = 0 → cost 1/50.
	got := Adaptive{}.Rank(now, cands(1, 0, 2, 1), v)
	if len(got) != 2 || got[0].Node != 2 {
		t.Fatalf("Rank = %v, want node 2 first", got)
	}
	// Without extrapolation (ResponseTime), node 1 still looks better.
	got = ResponseTime{}.Rank(now, cands(1, 0, 2, 1), v)
	if got[0].Node != 1 {
		t.Fatalf("ResponseTime Rank = %v, want node 1 first", got)
	}
}

func TestAdaptiveUnknownRanksLast(t *testing.T) {
	v := newFakeView()
	v.set(1, 0, DimLoad{QueueLen: 1000, ArrivalRate: 50, MatchRate: 10, ReportedAt: 0})
	// Node 2 has no report at all; node 3 has a report but μ=0 and few subs.
	v.set(3, 2, DimLoad{Subs: 5})
	got := Adaptive{}.Rank(0, cands(1, 0, 2, 1, 3, 2), v)
	if len(got) != 3 {
		t.Fatalf("Rank dropped candidates: %v", got)
	}
	if got[0].Node != 1 {
		t.Errorf("reported candidate should rank before unknowns: %v", got)
	}
	if got[1].Node != 3 || got[2].Node != 2 {
		t.Errorf("μ=0-with-subs should rank before no-report: %v", got)
	}
}

func TestSubscriptionAmount(t *testing.T) {
	v := newFakeView()
	v.set(1, 0, DimLoad{Subs: 13})
	v.set(2, 1, DimLoad{Subs: 4})
	v.set(3, 2, DimLoad{Subs: 7})
	got := SubscriptionAmount{}.Rank(0, cands(1, 0, 2, 1, 3, 2), v)
	want := []core.NodeID{2, 3, 1}
	for i, n := range want {
		if got[i].Node != n {
			t.Fatalf("Rank = %v, want order %v", got, want)
		}
	}
}

func TestDeadCandidatesFiltered(t *testing.T) {
	v := newFakeView()
	v.set(1, 0, DimLoad{Subs: 1, MatchRate: 10})
	v.set(2, 1, DimLoad{Subs: 2, MatchRate: 10})
	v.dead[1] = true
	for _, p := range []Policy{Adaptive{}, ResponseTime{}, SubscriptionAmount{}, NewRandom(1)} {
		got := p.Rank(0, cands(1, 0, 2, 1), v)
		if len(got) != 1 || got[0].Node != 2 {
			t.Errorf("%s: Rank = %v, want only node 2", p.Name(), got)
		}
	}
	v.dead[2] = true
	for _, p := range []Policy{Adaptive{}, NewRandom(1)} {
		if got := p.Rank(0, cands(1, 0, 2, 1), v); len(got) != 0 {
			t.Errorf("%s: all dead should return empty, got %v", p.Name(), got)
		}
	}
}

func TestRandomCoversAllCandidates(t *testing.T) {
	v := newFakeView()
	p := NewRandom(42)
	counts := map[core.NodeID]int{}
	for i := 0; i < 3000; i++ {
		got := p.Rank(0, cands(1, 0, 2, 1, 3, 2), v)
		if len(got) != 3 {
			t.Fatal("random dropped candidates")
		}
		counts[got[0].Node]++
	}
	for n := core.NodeID(1); n <= 3; n++ {
		if counts[n] < 700 { // expect ~1000 each
			t.Errorf("node %v chosen first only %d/3000 times", n, counts[n])
		}
	}
}

func TestTieBreakDeterminism(t *testing.T) {
	v := newFakeView()
	v.set(2, 1, DimLoad{Subs: 5})
	v.set(1, 0, DimLoad{Subs: 5})
	for i := 0; i < 10; i++ {
		got := SubscriptionAmount{}.Rank(0, cands(2, 1, 1, 0), v)
		if got[0].Node != 1 {
			t.Fatalf("tie not broken by node ID: %v", got)
		}
	}
}

func TestByName(t *testing.T) {
	for _, name := range []string{"adaptive", "resptime", "subamount", "random"} {
		p := ByName(name, 7)
		if p == nil || p.Name() != name {
			t.Errorf("ByName(%q) = %v", name, p)
		}
	}
	if ByName("nope", 0) != nil {
		t.Error("unknown name should return nil")
	}
}

// depriView is a fakeView that also implements Deprioritizer.
type depriView struct {
	*fakeView
	demoted map[core.NodeID]bool
}

func (v *depriView) Deprioritized(node core.NodeID) bool { return v.demoted[node] }

// A deprioritized (durability-degraded) candidate ranks after every normal
// one under all cost policies, even with a better load figure — but it is
// still returned, so it serves when nothing healthier exists.
func TestDeprioritizedRanksLast(t *testing.T) {
	v := &depriView{fakeView: newFakeView(), demoted: map[core.NodeID]bool{1: true}}
	// Node 1 is otherwise the clear winner: empty queue, high capacity.
	v.set(1, 0, DimLoad{QueueLen: 0, MatchRate: 100, ReportedAt: 0})
	v.set(2, 0, DimLoad{QueueLen: 50, MatchRate: 10, ReportedAt: 0})
	for _, p := range []Policy{Adaptive{}, ResponseTime{}, SubscriptionAmount{}} {
		got := p.Rank(0, cands(1, 0, 2, 0), v)
		if len(got) != 2 {
			t.Fatalf("%s: ranked %d candidates, want 2", p.Name(), len(got))
		}
		if got[0].Node != 2 || got[1].Node != 1 {
			t.Errorf("%s: order %v,%v; want healthy node 2 first", p.Name(), got[0].Node, got[1].Node)
		}
	}
	r := NewRandom(1)
	for i := 0; i < 20; i++ {
		got := r.Rank(0, cands(1, 0, 2, 0), v)
		if len(got) != 2 || got[0].Node != 2 {
			t.Fatalf("random: degraded node ranked first in %v", got)
		}
	}
}

// A view without the Deprioritizer interface ranks purely by cost — the
// demotion is strictly opt-in.
func TestNoDeprioritizerNoDemotion(t *testing.T) {
	v := newFakeView()
	v.set(1, 0, DimLoad{QueueLen: 0, MatchRate: 100, ReportedAt: 0})
	v.set(2, 0, DimLoad{QueueLen: 50, MatchRate: 10, ReportedAt: 0})
	got := Adaptive{}.Rank(0, cands(1, 0, 2, 0), v)
	if got[0].Node != 1 {
		t.Fatalf("best-cost node not first: %v", got)
	}
}

// TestShouldReport pins the >10% push suppression the matcher and the
// simulator share: the first report and any subscription-count change always
// go out; queue and rate changes go out only past the fraction.
func TestShouldReport(t *testing.T) {
	base := []DimLoad{{Subs: 10, QueueLen: 10, ArrivalRate: 100, MatchRate: 200}}
	with := func(f func(*DimLoad)) []DimLoad {
		s := []DimLoad{base[0]}
		f(&s[0])
		return s
	}
	cases := []struct {
		name       string
		last, snap []DimLoad
		want       bool
	}{
		{"first report", nil, base, true},
		{"dimension count changed", base, append(with(func(*DimLoad) {}), DimLoad{}), true},
		{"unchanged", base, with(func(*DimLoad) {}), false},
		{"subs changed by one", base, with(func(l *DimLoad) { l.Subs++ }), true},
		{"queue within fraction", base, with(func(l *DimLoad) { l.QueueLen = 11 }), false},
		{"queue past fraction", base, with(func(l *DimLoad) { l.QueueLen = 12 }), true},
		{"arrival drop past fraction", base, with(func(l *DimLoad) { l.ArrivalRate = 80 }), true},
		{"match rate within fraction", base, with(func(l *DimLoad) { l.MatchRate = 190 }), false},
		{"from zero", with(func(l *DimLoad) { l.QueueLen = 0 }), base, true},
		{"report time ignored", base, with(func(l *DimLoad) { l.ReportedAt = 5 }), false},
	}
	for _, tc := range cases {
		if got := ShouldReport(tc.last, tc.snap, 0.1); got != tc.want {
			t.Errorf("%s: ShouldReport = %v, want %v", tc.name, got, tc.want)
		}
	}
}
