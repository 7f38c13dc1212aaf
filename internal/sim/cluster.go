package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/elastic"
	"bluedove/internal/forward"
	"bluedove/internal/partition"
	"bluedove/internal/workload"
)

// Cluster is a simulated BlueDove deployment: dispatchers running the real
// placement/forwarding code, simulated matchers, the authoritative segment
// table, and the periodic control traffic (load reports, table pulls,
// gossip) that the paper's policies depend on.
type Cluster struct {
	cfg   Config
	eng   *Engine
	rng   *rand.Rand
	table *partition.Table

	matchers    map[core.NodeID]*simMatcher
	order       []core.NodeID // deterministic matcher iteration order
	dispatchers []*simDispatcher
	registry    map[core.SubscriptionID]*core.Subscription

	nextNode core.NodeID
	nextMsg  core.MessageID
	nextSub  core.SubscriptionID
	rrDisp   int

	stats     *Stats
	joinTimes []int64
	failTimes []int64

	elCtrl   *elastic.Controller  // nil unless Config.Elastic
	draining map[core.NodeID]bool // matchers mid-removal
}

// simDispatcher is a dispatcher's local state: a possibly stale table view,
// the latest load report per matcher, failure beliefs, and the count of its
// own forwards since each report (folded into the adaptive policy's queue
// estimate so bursts it creates are visible before the next report). It
// implements forward.LoadView.
type simDispatcher struct {
	id      core.NodeID
	cl      *Cluster
	table   *partition.Table
	loads   map[core.NodeID][]forward.DimLoad
	pending map[core.NodeID][]int
	dead    map[core.NodeID]bool
}

// Load implements forward.LoadView.
func (d *simDispatcher) Load(node core.NodeID, dim int) (forward.DimLoad, bool) {
	ls, ok := d.loads[node]
	if !ok || dim >= len(ls) {
		return forward.DimLoad{}, false
	}
	l := ls[dim]
	if p := d.pending[node]; dim < len(p) {
		// Scale by dispatcher count: the other dispatchers see the same
		// reports and make the same choices.
		l.PendingLocal = float64(p[dim]) * float64(len(d.cl.dispatchers))
	}
	return l, true
}

// sent records one forward to (node, dim) since the last report.
func (d *simDispatcher) sent(node core.NodeID, dim, k int) {
	p, ok := d.pending[node]
	if !ok || len(p) != k {
		p = make([]int, k)
		d.pending[node] = p
	}
	if dim < len(p) {
		p[dim]++
	}
}

// Alive implements forward.LoadView.
func (d *simDispatcher) Alive(node core.NodeID) bool { return !d.dead[node] }

// NewCluster builds a simulated cluster and starts its periodic control
// events. The virtual clock starts at 0; nothing runs until RunUntil.
func NewCluster(cfg Config) *Cluster {
	cfg = cfg.withDefaults()
	cl := &Cluster{
		cfg:      cfg,
		eng:      NewEngine(),
		rng:      rand.New(rand.NewSource(cfg.Seed)),
		matchers: make(map[core.NodeID]*simMatcher),
		registry: make(map[core.SubscriptionID]*core.Subscription),
		draining: make(map[core.NodeID]bool),
		nextNode: 1,
		nextMsg:  1,
		nextSub:  1,
		stats:    newStats(),
	}
	ids := make([]core.NodeID, cfg.Matchers)
	for i := range ids {
		ids[i] = cl.nextNode
		cl.nextNode++
		cl.matchers[ids[i]] = newSimMatcher(cl, ids[i])
		cl.order = append(cl.order, ids[i])
	}
	tab, err := partition.NewUniform(cfg.Space, ids)
	if err != nil {
		panic(err) // unreachable: ids are unique and non-empty
	}
	cl.table = tab
	if cfg.Elastic {
		cl.elCtrl = elastic.NewController(cfg.ElasticConfig)
	}
	for i := 0; i < Dispatchers; i++ {
		cl.dispatchers = append(cl.dispatchers, &simDispatcher{
			id:      cl.nextNode,
			cl:      cl,
			table:   tab,
			loads:   make(map[core.NodeID][]forward.DimLoad),
			pending: make(map[core.NodeID][]int),
			dead:    make(map[core.NodeID]bool),
		})
		cl.nextNode++
	}
	cl.startControlLoops()
	return cl
}

// Engine returns the cluster's event engine (for scheduling custom events in
// tests and experiments).
func (cl *Cluster) Engine() *Engine { return cl.eng }

// Now returns the current virtual time.
func (cl *Cluster) Now() int64 { return cl.eng.Now() }

// Table returns the authoritative segment table.
func (cl *Cluster) Table() *partition.Table { return cl.table }

// Stats returns the cluster's metrics.
func (cl *Cluster) Stats() *Stats { return cl.stats }

// startControlLoops schedules load reports, table pulls, gossip overhead
// accounting, the loss-rate sampler, and (optionally) the elasticity
// controller.
func (cl *Cluster) startControlLoops() {
	cfg := cl.cfg
	// Matcher load reports (push, suppressed below 10% change). The first
	// round fires at time zero so dispatchers never route blind.
	cl.eng.Every(0, cfg.ReportInterval, func() bool {
		now := cl.eng.Now()
		for _, id := range cl.order {
			m := cl.matchers[id]
			if !m.alive {
				continue
			}
			snap := m.loadSnapshot(now)
			if !forward.ShouldReport(m.lastReport, snap, reportDeltaFrac) {
				continue
			}
			m.lastReport = snap
			for _, d := range cl.dispatchers {
				d := d
				cl.eng.After(netDelay, func() {
					d.loads[m.id] = snap
					d.pending[m.id] = make([]int, len(snap))
				})
				cl.stats.LoadPushBytes.Add(64) // per paper: 64 B per push
			}
		}
		return true
	})
	// Dispatcher table pulls.
	cl.eng.Every(int64(tablePullInterval), tablePullInterval, func() bool {
		size := int64(len(cl.table.Encode()))
		for _, d := range cl.dispatchers {
			d := d
			tab := cl.table
			cl.eng.After(netDelay, func() {
				if d.table.Version() < tab.Version() {
					d.table = tab
				}
			})
			cl.stats.TablePullBytes.Add(size)
		}
		return true
	})
	// Gossip overhead accounting: each matcher exchanges its endpoint-state
	// table (segment table + 64 B heartbeat state per node) with one random
	// peer per second (push-pull, so the exchange is counted twice).
	cl.eng.Every(int64(time.Second), time.Second, func() bool {
		size := int64(len(cl.table.Encode())) + 64*int64(len(cl.order))
		for _, id := range cl.order {
			if cl.matchers[id].alive {
				cl.stats.GossipBytes.Add(2 * size)
			}
		}
		return true
	})
	// Loss/arrival 1-second sampler.
	cl.eng.Every(int64(time.Second), time.Second, func() bool {
		cl.stats.sampleLoss(cl.eng.Now())
		return true
	})
	if cfg.Elastic {
		cl.eng.Every(int64(cfg.ElasticCheckInterval), cfg.ElasticCheckInterval, func() bool {
			cl.elasticTick()
			return true
		})
	}
}

// elasticTick runs one controller round: scrape every live matcher at the
// current virtual time, feed the shared elastic.Controller — the same
// decision logic the real cluster embeds — and execute at most one decision.
func (cl *Cluster) elasticTick() {
	d := cl.elCtrl.Observe(cl.Scrape(cl.eng.Now()))
	if d == nil {
		return
	}
	switch d.Action {
	case elastic.ScaleUp:
		cl.AddMatcher()
	case elastic.ScaleDown:
		_ = cl.RemoveMatcher(d.Target)
	case elastic.Split:
		_, _ = cl.SplitSegment(d.Target, d.Dim, d.To)
	}
}

// Scrape samples every live matcher's load for the elasticity controller,
// mirroring the real cluster's scrape: the same loadSnapshot that feeds the
// dispatchers' forwarding policy feeds the scaling decisions.
func (cl *Cluster) Scrape(now int64) elastic.Scrape {
	s := elastic.Scrape{At: now}
	for _, id := range cl.order {
		m := cl.matchers[id]
		if !m.alive {
			continue
		}
		ms := elastic.MatcherSample{ID: id, Draining: cl.draining[id]}
		if m.processed > 0 {
			ms.ScannedPerMsg = float64(m.busyNs) / float64(m.processed) /
				float64(cl.cfg.PerScanCost) // service-time proxy for scan depth
		}
		for _, l := range m.loadSnapshot(now) {
			ms.Dims = append(ms.Dims, elastic.DimSample{
				Subs:        l.Subs,
				QueueLen:    l.QueueLen,
				ArrivalRate: l.ArrivalRate,
				MatchRate:   l.MatchRate,
			})
		}
		s.Matchers = append(s.Matchers, ms)
	}
	return s
}

// ElasticController exposes the embedded controller (nil unless
// Config.Elastic), for tests and experiments.
func (cl *Cluster) ElasticController() *elastic.Controller { return cl.elCtrl }

// TotalBacklog returns the number of messages queued across all matchers.
func (cl *Cluster) TotalBacklog() int {
	total := 0
	for _, id := range cl.order {
		total += cl.matchers[id].queued
	}
	return total
}

// Matchers returns the IDs of all live matchers, sorted.
func (cl *Cluster) Matchers() []core.NodeID {
	var out []core.NodeID
	for _, id := range cl.order {
		if cl.matchers[id].alive {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Subscribe registers a subscription: it is recorded in the dispatcher-side
// registry (used for failure recovery) and installed on every matcher the
// placement strategy names. An ID is assigned when the subscription has
// none. Returns the subscription's ID.
func (cl *Cluster) Subscribe(s *core.Subscription) core.SubscriptionID {
	if s.ID == 0 {
		s.ID = cl.nextSub
	}
	if s.ID >= cl.nextSub {
		cl.nextSub = s.ID + 1
	}
	cl.registry[s.ID] = s
	for _, a := range cl.cfg.Strategy.Assign(cl.table, s) {
		if m, ok := cl.matchers[a.Node]; ok && m.alive {
			m.store(a.Dim, s)
		}
	}
	cl.stats.Subscriptions.Add(1)
	return s.ID
}

// SubscribeAll registers a batch of subscriptions.
func (cl *Cluster) SubscribeAll(subs []*core.Subscription) {
	for _, s := range subs {
		cl.Subscribe(s)
	}
}

// Publish injects a publication at the current virtual time: a round-robin
// dispatcher stamps it, ranks the candidates with the forwarding policy and
// forwards it one hop to the best alive candidate. Messages with no alive
// candidate are lost.
func (cl *Cluster) Publish(m *core.Message) {
	m.ID = cl.nextMsg
	cl.nextMsg++
	m.PublishedAt = cl.eng.Now()
	cl.stats.Arrived.Add(1)
	d := cl.dispatchers[cl.rrDisp]
	cl.rrDisp = (cl.rrDisp + 1) % len(cl.dispatchers)
	cl.eng.After(dispatchCost, func() { cl.forwardMsg(queuedMsg{m: m, from: d}) })
}

// forwardMsg routes one (possibly retried) message to its best candidate,
// skipping matchers already attempted; with no candidate left the message
// is lost, or parked for a persistence retry.
func (cl *Cluster) forwardMsg(qm queuedMsg) {
	now := cl.eng.Now()
	d := qm.from
	cands := cl.cfg.Strategy.Candidates(d.table, qm.m)
	ranked := cl.cfg.Policy.Rank(now, cands, d)
	for _, c := range ranked {
		if qm.tried[c.Node] {
			continue
		}
		target := cl.matchers[c.Node]
		if target == nil {
			continue
		}
		if cl.cfg.Persistent {
			if qm.tried == nil {
				qm.tried = make(map[core.NodeID]bool)
			}
			qm.tried[c.Node] = true
		}
		qm.dim = c.Dim
		d.sent(c.Node, c.Dim, cl.cfg.Space.K())
		cl.eng.After(netDelay, func() { target.enqueue(qm) })
		return
	}
	if !cl.cfg.Persistent {
		cl.recordLoss(now)
		return
	}
	// Persistence: no untried alive candidate right now — wait for failure
	// detection / recovery to change the view, then retry afresh.
	cl.retryLater(qm)
}

// lostOrRetry handles a message caught on a crashed matcher: with the
// persistence extension it is re-forwarded, otherwise counted lost.
func (cl *Cluster) lostOrRetry(qm queuedMsg) {
	if !cl.cfg.Persistent || qm.from == nil {
		cl.recordLoss(cl.eng.Now())
		return
	}
	qm.attempts++
	if qm.attempts > persistMaxAttempts {
		cl.recordLoss(cl.eng.Now())
		return
	}
	cl.stats.PersistRetries.Add(1)
	cl.forwardMsg(qm)
}

// retryLater re-attempts a persistent message after the retry delay with a
// cleared attempt set (membership may have changed). Waiting does not
// consume send attempts — a message whose only candidates are a crashed
// matcher must survive until failure recovery republishes the table — but
// the total wait is bounded so an unrecoverable cluster cannot hold
// messages forever.
func (cl *Cluster) retryLater(qm queuedMsg) {
	qm.waits++
	if qm.waits > persistMaxAttempts*10 {
		cl.recordLoss(cl.eng.Now())
		return
	}
	qm.tried = nil
	cl.eng.After(persistRetryDelay, func() { cl.forwardMsg(qm) })
}

// Drive schedules an open-loop workload: publications drawn from gen at the
// rate given by sched, from the current time until virtual time until.
// Interarrival times are deterministic (1/rate), matching the paper's
// constant-rate generators.
func (cl *Cluster) Drive(gen *workload.Generator, sched workload.Schedule, until int64) {
	var next func()
	next = func() {
		now := cl.eng.Now()
		if now >= until {
			return
		}
		rate := sched.RateAt(now)
		if rate <= 0 {
			// Idle: re-check the schedule every 100ms.
			cl.eng.After(100*time.Millisecond, next)
			return
		}
		cl.Publish(gen.Message())
		cl.eng.After(time.Duration(float64(time.Second)/rate), next)
	}
	cl.eng.At(cl.eng.Now(), next)
}

// RunUntil advances the simulation to virtual time t.
func (cl *Cluster) RunUntil(t int64) { cl.eng.RunUntil(t) }

// RunFor advances the simulation by d.
func (cl *Cluster) RunFor(d time.Duration) { cl.eng.RunUntil(cl.eng.Now() + int64(d)) }

// recordLoss counts one lost message.
func (cl *Cluster) recordLoss(now int64) { cl.stats.recordLoss(now) }

// recordResponse records a completed message's response time, keyed by its
// arrival time.
func (cl *Cluster) recordResponse(at int64, m *core.Message) {
	cl.stats.recordResponse(m.PublishedAt, at-m.PublishedAt)
}

// FailMatcher crashes a matcher at the current virtual time: its queued
// messages are lost, dispatchers keep forwarding to it (losing messages)
// until the failure-detection delay elapses, and after the recovery delay
// its subscriptions are re-installed on the surviving matchers via a new
// segment table.
func (cl *Cluster) FailMatcher(id core.NodeID) error {
	m, ok := cl.matchers[id]
	if !ok || !m.alive {
		return fmt.Errorf("sim: matcher %v not alive", id)
	}
	if len(cl.Matchers()) <= 1 {
		return fmt.Errorf("sim: cannot fail the last matcher")
	}
	m.fail()
	cl.stats.Failures.Add(1)
	cl.failTimes = append(cl.failTimes, cl.eng.Now())
	// Failure detection: dispatchers mark it dead (candidate failover).
	cl.eng.After(cl.cfg.FailureDetectDelay, func() {
		for _, d := range cl.dispatchers {
			d.dead[id] = true
		}
		// Recovery: remove from the table and re-install its subscriptions.
		cl.eng.After(cl.cfg.RecoveryDelay, func() {
			newTab, _, err := cl.table.Leave(id)
			if err != nil {
				return // already removed by a concurrent change
			}
			cl.table = newTab
			cl.reconcile()
			cl.propagateTable()
		})
	})
	return nil
}

// FailRandomMatcher crashes a uniformly chosen live matcher and returns its
// ID.
func (cl *Cluster) FailRandomMatcher() (core.NodeID, error) {
	live := cl.Matchers()
	if len(live) <= 1 {
		return 0, fmt.Errorf("sim: no matcher available to fail")
	}
	id := live[cl.rng.Intn(len(live))]
	return id, cl.FailMatcher(id)
}

// AddMatcher joins a new matcher at the current virtual time: per dimension
// it takes the upper half of the most loaded (by stored subscriptions)
// matcher's segment, receives the overlapping subscriptions immediately, and
// dispatchers switch to the new table after the propagation delay. The
// victims prune handed-over subscriptions after the same delay. Returns the
// new matcher's ID.
func (cl *Cluster) AddMatcher() core.NodeID {
	id := cl.nextNode
	cl.nextNode++
	m := newSimMatcher(cl, id)
	k := cl.cfg.Space.K()
	victims := make([]core.NodeID, k)
	for dim := 0; dim < k; dim++ {
		// "Most loaded matcher in each dimension" (paper Section IV-E):
		// rank by queued work on that dimension's stage, breaking ties (for
		// example on an idle cluster) by stored subscriptions.
		bestQ, bestSubs := -1, -1
		for _, mid := range cl.order {
			vm := cl.matchers[mid]
			if !vm.alive || !cl.table.HasMatcher(mid) {
				continue
			}
			q, s := len(vm.queues[dim]), vm.subsOnDim(dim)
			if q > bestQ || (q == bestQ && s > bestSubs) {
				bestQ, bestSubs = q, s
				victims[dim] = mid
			}
		}
	}
	newTab, handovers, err := cl.table.Join(id, victims)
	if err != nil {
		// Segments too narrow to split further; reuse the id anyway with a
		// full reconcile (no table change).
		cl.matchers[id] = m
		cl.order = append(cl.order, id)
		return id
	}
	cl.matchers[id] = m
	cl.order = append(cl.order, id)
	cl.table = newTab
	// Transfer: new matcher receives overlapping subscriptions now.
	for _, h := range handovers {
		if vm, ok := cl.matchers[h.From]; ok {
			for _, s := range vm.indexes[h.Dim].Overlapping(h.Range, nil) {
				m.store(h.Dim, s)
			}
		}
	}
	cl.stats.Joins.Add(1)
	cl.joinTimes = append(cl.joinTimes, cl.eng.Now())
	cl.propagateTable()
	// Victims prune after the table has reached all dispatchers, so stale
	// routing cannot miss matches.
	grace := tablePropagateDelay + netDelay
	cl.eng.After(grace, func() { cl.pruneToTable() })
	return id
}

// RemoveMatcher gracefully drains and removes a live matcher — the
// controller's scale-down actuator, the simulated counterpart of the real
// cluster's leave protocol. Its segments are absorbed by adjacent owners and
// the overlapping subscriptions transfer immediately, so routing on the new
// table never misses a match; the leaver keeps serving stale-routed traffic
// through the propagation grace and retires only once its queues and workers
// are empty — no message is dropped by a scale-down.
func (cl *Cluster) RemoveMatcher(id core.NodeID) error {
	m, ok := cl.matchers[id]
	if !ok || !m.alive {
		return fmt.Errorf("sim: matcher %v not alive", id)
	}
	if cl.draining[id] {
		return fmt.Errorf("sim: matcher %v already draining", id)
	}
	newTab, handovers, err := cl.table.Leave(id)
	if err != nil {
		return err
	}
	cl.draining[id] = true
	for _, h := range handovers {
		tm, ok := cl.matchers[h.To]
		if !ok || !tm.alive {
			continue
		}
		for _, s := range m.indexes[h.Dim].Overlapping(h.Range, nil) {
			tm.store(h.Dim, s)
		}
	}
	cl.table = newTab
	cl.stats.Leaves.Add(1)
	cl.propagateTable()
	grace := tablePropagateDelay + netDelay
	var retire func()
	retire = func() {
		busy := 0
		for _, b := range m.busyDim {
			busy += b
		}
		if m.queued > 0 || busy > 0 {
			cl.eng.After(10*time.Millisecond, retire)
			return
		}
		m.alive = false
		delete(cl.draining, id)
	}
	cl.eng.After(grace, retire)
	return nil
}

// SplitSegment cuts hot's widest dimension-dim segment at the median stored
// predicate center and re-homes the upper half onto matcher to — the
// controller's split actuator for σ-skewed load. The receiving matcher gets
// the overlapping subscriptions before the table changes hands; the hot
// matcher prunes its half after the propagation grace. Returns the cut point.
func (cl *Cluster) SplitSegment(hot core.NodeID, dim int, to core.NodeID) (float64, error) {
	hm, ok := cl.matchers[hot]
	if !ok || !hm.alive {
		return 0, fmt.Errorf("sim: matcher %v not alive", hot)
	}
	tm, ok := cl.matchers[to]
	if !ok || !tm.alive {
		return 0, fmt.Errorf("sim: split target %v not alive", to)
	}
	if dim < 0 || dim >= len(hm.indexes) {
		return 0, fmt.Errorf("sim: split dim %d out of range", dim)
	}
	segs, err := cl.table.SegmentsOf(hot, dim)
	if err != nil {
		return 0, err
	}
	widest := segs[0]
	for _, s := range segs[1:] {
		if s.High-s.Low > widest.High-widest.Low {
			widest = s
		}
	}
	cut := partition.SplitPoint(hm.indexes[dim].Overlapping(widest, nil), dim, widest)
	newTab, h, err := cl.table.Split(dim, cut, to)
	if err != nil {
		return 0, err
	}
	for _, s := range hm.indexes[h.Dim].Overlapping(h.Range, nil) {
		tm.store(h.Dim, s)
	}
	cl.table = newTab
	cl.stats.Splits.Add(1)
	cl.propagateTable()
	grace := tablePropagateDelay + netDelay
	cl.eng.After(grace, func() { cl.pruneToTable() })
	return cut, nil
}

// propagateTable delivers the authoritative table to every dispatcher after
// the gossip propagation delay.
func (cl *Cluster) propagateTable() {
	tab := cl.table
	cl.eng.After(tablePropagateDelay, func() {
		for _, d := range cl.dispatchers {
			if d.table.Version() < tab.Version() {
				d.table = tab
			}
		}
	})
}

// reconcile installs every registered subscription wherever the current
// table's placement demands and it is missing — used after failure recovery,
// when the failed matcher's copies are gone.
func (cl *Cluster) reconcile() {
	for _, s := range cl.registry {
		for _, a := range cl.cfg.Strategy.Assign(cl.table, s) {
			if m, ok := cl.matchers[a.Node]; ok && m.alive && !m.indexes[a.Dim].Contains(s.ID) {
				m.store(a.Dim, s)
			}
		}
	}
}

// pruneToTable removes subscription copies no longer demanded by the current
// table (after a join's handover grace period).
func (cl *Cluster) pruneToTable() {
	desired := make(map[core.NodeID]map[int]map[core.SubscriptionID]bool)
	for _, s := range cl.registry {
		for _, a := range cl.cfg.Strategy.Assign(cl.table, s) {
			if desired[a.Node] == nil {
				desired[a.Node] = make(map[int]map[core.SubscriptionID]bool)
			}
			if desired[a.Node][a.Dim] == nil {
				desired[a.Node][a.Dim] = make(map[core.SubscriptionID]bool)
			}
			desired[a.Node][a.Dim][s.ID] = true
		}
	}
	for _, id := range cl.order {
		m := cl.matchers[id]
		if !m.alive {
			continue
		}
		for dim, idx := range m.indexes {
			want := desired[id][dim]
			for _, s := range idx.All(nil) {
				if !want[s.ID] {
					idx.Remove(s.ID)
				}
			}
		}
	}
}

// SubsPerMatcherDim returns, for each live matcher, its per-dimension
// subscription counts (for load-distribution analyses).
func (cl *Cluster) SubsPerMatcherDim() map[core.NodeID][]int {
	out := make(map[core.NodeID][]int)
	for _, id := range cl.order {
		m := cl.matchers[id]
		if !m.alive {
			continue
		}
		counts := make([]int, len(m.indexes))
		for dim, idx := range m.indexes {
			counts[dim] = idx.Len()
		}
		out[id] = counts
	}
	return out
}

// JoinTimes returns the virtual times at which matchers joined.
func (cl *Cluster) JoinTimes() []int64 {
	out := make([]int64, len(cl.joinTimes))
	copy(out, cl.joinTimes)
	return out
}

// FailTimes returns the virtual times at which matchers were crashed.
func (cl *Cluster) FailTimes() []int64 {
	out := make([]int64, len(cl.failTimes))
	copy(out, cl.failTimes)
	return out
}

// MarkUtilization snapshots every matcher's busy-time counter; a later
// Utilizations call reports the busy fraction since this mark.
func (cl *Cluster) MarkUtilization() {
	for _, id := range cl.order {
		m := cl.matchers[id]
		m.busyMark = m.busyNs
	}
}

// Utilizations returns each live matcher's busy fraction over the given
// window since the last MarkUtilization, in cl.Matchers() order.
func (cl *Cluster) Utilizations(window time.Duration) []float64 {
	var out []float64
	for _, id := range cl.Matchers() {
		out = append(out, cl.matchers[id].utilizationSince(int64(window)))
	}
	return out
}

// DumpQueues renders per-matcher per-dimension queue lengths and stored
// subscription counts — a debugging aid for experiments and tests.
func (cl *Cluster) DumpQueues() string {
	out := ""
	for _, id := range cl.order {
		m := cl.matchers[id]
		if !m.alive {
			continue
		}
		out += fmt.Sprintf("%v:", id)
		for dim := range m.queues {
			out += fmt.Sprintf(" d%d[q=%d subs=%d]", dim, len(m.queues[dim]), m.indexes[dim].Len())
		}
		out += "\n"
	}
	return out
}
