package sim

import (
	"sort"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/forward"
	"bluedove/internal/index"
	"bluedove/internal/metrics"
)

// queuedMsg is a message waiting in one of a matcher's per-dimension queues,
// carrying the provenance the persistence extension needs to re-forward it.
type queuedMsg struct {
	m        *core.Message
	dim      int
	from     *simDispatcher       // forwarding dispatcher
	tried    map[core.NodeID]bool // matchers already attempted
	attempts int                  // failed sends (bounced off dead matchers)
	waits    int                  // no-candidate wait cycles
}

// simMatcher models one matcher server following the paper's SEDA layout:
// k per-dimension subscription indexes and k per-dimension FIFO queues ("a
// separate queue is used to store incoming messages on each dimension",
// Section III-B1). The matcher has k workers in total (the paper's matchers
// are 4-core VMs with one stage per searchable dimension); the workers are
// divided evenly among the dimensions that actually hold subscriptions, so
// a single-set system (P2P, full replication) gets its whole pool on its
// one queue while BlueDove pins one worker per dimension stage.
// Per-dimension λ/μ meters feed the load reports. Service time per message
// is BaseMatchCost + PerScanCost·scanned + perDeliverCost·matched —
// in-memory matching cost proportional to the subscriptions searched, the
// quantity the paper's policies optimize.
type simMatcher struct {
	id      core.NodeID
	cl      *Cluster
	alive   bool
	indexes []index.Index
	cands   []*core.Subscription // reused stabbing candidate buffer
	queues  [][]queuedMsg
	queued  int
	busyDim []int // in-service message count per dimension queue

	arrivals    []*metrics.RateMeter
	matched     []*metrics.RateMeter
	serviceEWMA []float64 // smoothed per-message service time (ns) per dimension

	lastReport []forward.DimLoad

	busyNs    int64 // cumulative service time across all workers
	busyMark  int64 // busyNs at last utilization snapshot
	processed int64
}

func newSimMatcher(cl *Cluster, id core.NodeID) *simMatcher {
	k := cl.cfg.Space.K()
	m := &simMatcher{
		id:          id,
		cl:          cl,
		alive:       true,
		indexes:     make([]index.Index, k),
		queues:      make([][]queuedMsg, k),
		busyDim:     make([]int, k),
		arrivals:    make([]*metrics.RateMeter, k),
		matched:     make([]*metrics.RateMeter, k),
		serviceEWMA: make([]float64, k),
	}
	for i := 0; i < k; i++ {
		m.indexes[i] = index.New(cl.cfg.IndexKind, cl.cfg.Space, i)
		m.arrivals[i] = metrics.NewRateMeter(rateWindow, 8)
		m.matched[i] = metrics.NewRateMeter(rateWindow, 8)
	}
	return m
}

// store installs a subscription into the dimension-dim set.
func (m *simMatcher) store(dim int, s *core.Subscription) {
	m.indexes[dim].Add(s)
}

// enqueue receives a message forwarded along dim. Messages sent to a dead
// matcher are lost (the pre-failure-detection loss of Figure 10) unless the
// persistence extension re-forwards them.
func (m *simMatcher) enqueue(qm queuedMsg) {
	if !m.alive {
		m.cl.lostOrRetry(qm)
		return
	}
	dim := qm.dim
	m.arrivals[dim].Mark(m.cl.eng.Now(), 1)
	m.queues[dim] = append(m.queues[dim], qm)
	m.queued++
	m.serveNext(dim)
}

// workersFor returns the worker count assigned to one dimension's stage:
// the k-worker pool divided among dimensions that hold subscriptions.
func (m *simMatcher) workersFor(dim int) int {
	active := 0
	for _, ix := range m.indexes {
		if ix.Len() > 0 {
			active++
		}
	}
	if active == 0 {
		active = len(m.indexes)
	}
	w := len(m.indexes) / active
	if w < 1 {
		w = 1
	}
	return w
}

// serveNext starts service on dimension dim's queue while the stage has
// idle workers, scheduling each message's completion after its modeled
// service time.
func (m *simMatcher) serveNext(dim int) {
	for m.alive && len(m.queues[dim]) > 0 && m.busyDim[dim] < m.workersFor(dim) {
		m.serveOne(dim)
	}
}

// serveOne pops one message from dimension dim's queue onto a worker.
func (m *simMatcher) serveOne(dim int) {
	qm := m.queues[dim][0]
	m.queues[dim] = m.queues[dim][1:]
	m.queued--
	m.busyDim[dim]++

	// The paper's matcher, charged the stab's scanned count: index.Match on
	// a bucket index would count only the cuboids surviving its
	// cross-dimension bitsets, which is not the cost the paper models.
	// matchedSubs escapes into the completion closure, so its destination
	// slice is fresh; the stabbing candidate buffer is reused across serves.
	matchedSubs, cands, scanned := index.StabVerify(m.indexes[dim], qm.m, nil, m.cands)
	m.cands = cands
	service := int64(m.cl.cfg.BaseMatchCost) +
		int64(m.cl.cfg.PerScanCost)*int64(scanned) +
		int64(perDeliverCost)*int64(len(matchedSubs))
	const ewmaAlpha = 0.1
	if m.serviceEWMA[dim] == 0 {
		m.serviceEWMA[dim] = float64(service)
	} else {
		m.serviceEWMA[dim] += ewmaAlpha * (float64(service) - m.serviceEWMA[dim])
	}
	m.busyNs += service
	m.cl.eng.After(time.Duration(service), func() {
		m.complete(qm, dim, matchedSubs)
	})
}

// complete finishes a message: records μ, response time (including the
// delivery hop), and continues serving.
func (m *simMatcher) complete(qm queuedMsg, dim int, matchedSubs []*core.Subscription) {
	m.busyDim[dim]--
	if !m.alive {
		// The server crashed while this message was being matched.
		m.cl.lostOrRetry(qm)
		return
	}
	now := m.cl.eng.Now()
	m.matched[dim].Mark(now, 1)
	m.processed++
	m.cl.recordResponse(now+int64(netDelay), qm.m)
	if m.cl.cfg.OnDeliver != nil {
		m.cl.cfg.OnDeliver(qm.m, matchedSubs)
	}
	m.serveNext(dim)
}

// loadSnapshot builds the per-dimension load report at time now.
func (m *simMatcher) loadSnapshot(now int64) []forward.DimLoad {
	k := len(m.queues)
	out := make([]forward.DimLoad, k)
	for i := 0; i < k; i++ {
		// μ is the dimension stage's service capacity — workers times the
		// inverse of the smoothed per-message matching time — not its recent
		// throughput: an idle-but-fast stage must look fast. Cold dimensions
		// are seeded by probing the index so the first reports already carry
		// realistic costs (otherwise every stage looks equally cheap and the
		// first seconds herd messages onto expensive hot spots).
		if m.serviceEWMA[i] <= 0 {
			m.serviceEWMA[i] = m.probeService(i)
		}
		mu := float64(m.workersFor(i)) * float64(time.Second) / m.serviceEWMA[i]
		out[i] = forward.DimLoad{
			Subs:        m.indexes[i].Len(),
			QueueLen:    len(m.queues[i]),
			ArrivalRate: m.arrivals[i].Rate(now),
			MatchRate:   mu,
			ReportedAt:  now,
		}
	}
	return out
}

// probeService estimates the per-message service time (ns) of a cold
// dimension stage by stabbing the index at a few stored predicate centers.
func (m *simMatcher) probeService(dim int) float64 {
	idx := m.indexes[dim]
	base := float64(m.cl.cfg.BaseMatchCost)
	if idx.Len() == 0 {
		return base
	}
	// All's order follows the index's own layout (slot reuse after churn for
	// the bucket index); probe in ID order so the first reports and routing
	// depend only on the stored set.
	subs := idx.All(nil)
	sort.Slice(subs, func(i, j int) bool { return subs[i].ID < subs[j].ID })
	total, probes := 0, 0
	for i := 0; i < len(subs) && probes < 3; i += 1 + len(subs)/3 {
		p := subs[i].Predicates[dim]
		_, scanned := idx.Stab((p.Low+p.High)/2, nil)
		total += scanned
		probes++
	}
	return base + float64(m.cl.cfg.PerScanCost)*float64(total)/float64(probes)
}

// fail kills the matcher: queued messages are lost, nothing further is
// served.
func (m *simMatcher) fail() {
	if !m.alive {
		return
	}
	m.alive = false
	for d := range m.queues {
		for _, qm := range m.queues[d] {
			m.cl.lostOrRetry(qm)
		}
		m.queues[d] = nil
	}
	m.queued = 0
}

// utilizationSince returns the matcher's busy fraction of its total
// capacity (k per-dimension workers) since the last snapshot and resets the
// snapshot mark.
func (m *simMatcher) utilizationSince(windowNs int64) float64 {
	delta := m.busyNs - m.busyMark
	m.busyMark = m.busyNs
	if windowNs <= 0 {
		return 0
	}
	u := float64(delta) / float64(windowNs) / float64(len(m.queues))
	if u > 1 {
		u = 1
	}
	return u
}

// subsOnDim returns the subscription count of the dimension-dim set.
func (m *simMatcher) subsOnDim(dim int) int { return m.indexes[dim].Len() }
