// Package forward implements BlueDove's performance-aware message forwarding
// (paper Section III-B): given a message's k candidate matchers, a policy
// ranks them so the dispatcher can send the message to the most favourable
// one, falling back along the ranking when a candidate has failed.
//
// Four policies are provided, matching the four evaluated in Figure 7:
//
//   - Adaptive: estimates each candidate's current per-dimension queue by
//     linear extrapolation from the matcher's last (λ, μ, q) report —
//     q(t) = q0 + (λ−μ)(t−t0) — and ranks by estimated processing time
//     (q+1)/μ. This is BlueDove's default.
//   - ResponseTime: ranks by (q0+1)/μ using the last report as-is, without
//     extrapolation.
//   - SubscriptionAmount: ranks by the number of subscriptions stored in the
//     candidate's corresponding dimension set.
//   - Random: uniform random choice; the baseline.
package forward

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/partition"
)

// DimLoad is one matcher's most recent load report for one of its k
// per-dimension subscription sets (paper Section III-B2). Matchers publish
// one DimLoad per dimension to all dispatchers.
type DimLoad struct {
	// Subs is |Si(Mj)|: subscriptions stored along this dimension.
	Subs int
	// QueueLen is q^i: messages waiting in this dimension's queue at
	// ReportedAt.
	QueueLen int
	// ArrivalRate is λ^i in messages/second over the report window.
	ArrivalRate float64
	// MatchRate is μ^i in messages/second over the report window.
	MatchRate float64
	// ReportedAt is t0, the cluster-clock time (ns) the report was taken.
	ReportedAt int64
	// PendingLocal is the dispatcher's own estimate of messages added to
	// this queue since the report that the reported λ does not yet reflect —
	// its forwards to (node, dim) since ReportedAt, scaled by the dispatcher
	// count. This is what lets the adaptive policy see a burst it is itself
	// creating before the next report (the Figure 4 "with estimation"
	// behaviour) instead of herding every message onto the coldest matcher
	// for a whole report interval.
	PendingLocal float64
}

// ShouldReport applies the paper's load-report push suppression (Section
// IV-C: pushes on >10% change): snap goes out when nothing was reported yet
// (last nil), the dimension count changed, some dimension's stored
// subscription count changed, or its queue length, arrival rate or service
// rate moved by more than deltaFrac relative to last.
func ShouldReport(last, snap []DimLoad, deltaFrac float64) bool {
	if last == nil || len(last) != len(snap) {
		return true
	}
	changed := func(old, new float64) bool {
		if old == 0 {
			return new != 0
		}
		return math.Abs((new-old)/old) > deltaFrac
	}
	for i, l := range snap {
		p := last[i]
		if changed(float64(p.QueueLen), float64(l.QueueLen)) ||
			changed(p.ArrivalRate, l.ArrivalRate) ||
			changed(p.MatchRate, l.MatchRate) ||
			p.Subs != l.Subs {
			return true
		}
	}
	return false
}

// EstimatedQueue extrapolates the queue length to time now:
// q(t) = q0 + (λ−μ)(t−t0), floored at zero (paper Section III-B2), plus the
// dispatcher's own not-yet-reported forwards (PendingLocal).
func (l DimLoad) EstimatedQueue(now int64) float64 {
	dt := float64(now-l.ReportedAt) / float64(time.Second)
	if dt < 0 {
		dt = 0
	}
	q := float64(l.QueueLen) + (l.ArrivalRate-l.MatchRate)*dt + l.PendingLocal
	if q < 0 {
		q = 0
	}
	return q
}

// LoadView supplies the dispatcher's current knowledge about matchers. The
// dispatcher implements it from gossip + load pushes.
type LoadView interface {
	// Load returns the latest report for (node, dim) and whether one exists.
	Load(node core.NodeID, dim int) (DimLoad, bool)
	// Alive reports whether the node is believed reachable.
	Alive(node core.NodeID) bool
}

// Policy ranks a message's candidate matchers, best first. Implementations
// must be safe for concurrent use.
type Policy interface {
	// Name returns the policy's identifier, e.g. "adaptive".
	Name() string
	// Rank returns the alive candidates ordered most- to least-preferred.
	// The returned slice is freshly allocated. An empty result means no
	// candidate is alive.
	Rank(now int64, cands []partition.Candidate, view LoadView) []partition.Candidate
}

// RouteFilter optionally augments a LoadView with routability vetoes beyond
// liveness. A LoadView that also implements RouteFilter (e.g. a dispatcher
// consulting its circuit breakers) has Routable checked by every policy at
// rank time, so a tripped matcher is skipped during candidate selection.
type RouteFilter interface {
	// Routable reports whether the node should receive new forwards now.
	Routable(node core.NodeID) bool
}

// Deprioritizer optionally augments a LoadView with a soft demotion: a
// deprioritized node (e.g. a durability-degraded matcher) stays routable
// but ranks after every non-deprioritized candidate under all policies, so
// it only receives forwards when nothing healthier is available.
type Deprioritizer interface {
	// Deprioritized reports whether the node should rank last.
	Deprioritized(node core.NodeID) bool
}

// scored pairs a candidate with its rank tier (0 normal, 1 deprioritized)
// and policy cost (lower is better).
type scored struct {
	c    partition.Candidate
	tier int
	cost float64
}

// rankByCost filters dead and unroutable candidates, computes costs, and
// sorts ascending with deterministic tie-breaking by (tier, cost, node, dim).
func rankByCost(cands []partition.Candidate, view LoadView,
	cost func(partition.Candidate) float64) []partition.Candidate {
	filter, _ := view.(RouteFilter)
	depri, _ := view.(Deprioritizer)
	ss := make([]scored, 0, len(cands))
	for _, c := range cands {
		if !view.Alive(c.Node) {
			continue
		}
		if filter != nil && !filter.Routable(c.Node) {
			continue
		}
		s := scored{c: c, cost: cost(c)}
		if depri != nil && depri.Deprioritized(c.Node) {
			s.tier = 1
		}
		ss = append(ss, s)
	}
	sort.Slice(ss, func(i, j int) bool {
		if ss[i].tier != ss[j].tier {
			return ss[i].tier < ss[j].tier
		}
		if ss[i].cost != ss[j].cost {
			return ss[i].cost < ss[j].cost
		}
		if ss[i].c.Node != ss[j].c.Node {
			return ss[i].c.Node < ss[j].c.Node
		}
		return ss[i].c.Dim < ss[j].c.Dim
	})
	out := make([]partition.Candidate, len(ss))
	for i, s := range ss {
		out[i] = s.c
	}
	return out
}

// Adaptive is the default BlueDove policy: estimated processing time with
// queue-length extrapolation between reports.
type Adaptive struct{}

// Name returns "adaptive".
func (Adaptive) Name() string { return "adaptive" }

// Rank orders candidates by extrapolated processing time (q(now)+1)/μ.
// Candidates without a report (or with μ=0, i.e. never observed matching)
// are ranked after reported ones, ordered by subscription count so a cold
// system still avoids obvious hot spots.
func (Adaptive) Rank(now int64, cands []partition.Candidate, view LoadView) []partition.Candidate {
	return rankByCost(cands, view, func(c partition.Candidate) float64 {
		l, ok := view.Load(c.Node, c.Dim)
		if !ok || l.MatchRate <= 0 {
			return unknownCost(l, ok)
		}
		return (l.EstimatedQueue(now) + 1) / l.MatchRate
	})
}

// ResponseTime ranks by processing time from the last report without
// extrapolation — the "response time based policy" ablation of Figure 7.
type ResponseTime struct{}

// Name returns "resptime".
func (ResponseTime) Name() string { return "resptime" }

// Rank orders candidates by (q0+1)/μ from the last report, ignoring the
// report's age.
func (ResponseTime) Rank(now int64, cands []partition.Candidate, view LoadView) []partition.Candidate {
	return rankByCost(cands, view, func(c partition.Candidate) float64 {
		l, ok := view.Load(c.Node, c.Dim)
		if !ok || l.MatchRate <= 0 {
			return unknownCost(l, ok)
		}
		return (float64(l.QueueLen) + 1) / l.MatchRate
	})
}

// unknownCost ranks unreported or never-matching candidates after all
// reported ones, ordered among themselves by subscription count.
func unknownCost(l DimLoad, ok bool) float64 {
	base := math.MaxFloat64 / 4
	if !ok {
		return base * 2
	}
	return base + float64(l.Subs)
}

// SubscriptionAmount ranks by |Si(CM_i)| — the static subscription-count
// policy of Section III-B1.
type SubscriptionAmount struct{}

// Name returns "subamount".
func (SubscriptionAmount) Name() string { return "subamount" }

// Rank orders candidates by stored subscription count on the corresponding
// dimension, fewest first. Candidates without any report rank last.
func (SubscriptionAmount) Rank(now int64, cands []partition.Candidate, view LoadView) []partition.Candidate {
	return rankByCost(cands, view, func(c partition.Candidate) float64 {
		l, ok := view.Load(c.Node, c.Dim)
		if !ok {
			return math.MaxFloat64 / 2
		}
		return float64(l.Subs)
	})
}

// Random picks uniformly among alive candidates — the baseline policy.
type Random struct {
	mu  sync.Mutex
	rng *rand.Rand
}

// NewRandom creates a Random policy seeded for reproducibility.
func NewRandom(seed int64) *Random {
	return &Random{rng: rand.New(rand.NewSource(seed))}
}

// Name returns "random".
func (*Random) Name() string { return "random" }

// Rank returns the alive candidates in uniformly random order, with
// deprioritized candidates after all normal ones (random within each tier).
func (p *Random) Rank(now int64, cands []partition.Candidate, view LoadView) []partition.Candidate {
	filter, _ := view.(RouteFilter)
	depri, _ := view.(Deprioritizer)
	alive := make([]partition.Candidate, 0, len(cands))
	for _, c := range cands {
		if !view.Alive(c.Node) {
			continue
		}
		if filter != nil && !filter.Routable(c.Node) {
			continue
		}
		alive = append(alive, c)
	}
	p.mu.Lock()
	p.rng.Shuffle(len(alive), func(i, j int) { alive[i], alive[j] = alive[j], alive[i] })
	p.mu.Unlock()
	if depri != nil {
		sort.SliceStable(alive, func(i, j int) bool {
			return !depri.Deprioritized(alive[i].Node) && depri.Deprioritized(alive[j].Node)
		})
	}
	return alive
}

// ByName returns the policy with the given name, seeding Random with seed.
// Recognized names: adaptive, resptime, subamount, random. It returns nil
// for unknown names.
func ByName(name string, seed int64) Policy {
	switch name {
	case "adaptive":
		return Adaptive{}
	case "resptime":
		return ResponseTime{}
	case "subamount":
		return SubscriptionAmount{}
	case "random":
		return NewRandom(seed)
	default:
		return nil
	}
}
