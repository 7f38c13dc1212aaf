package matcher

import (
	"bluedove/internal/core"
	"bluedove/internal/wire"
)

// Interest summary: the matcher side of the federation tier. A border node
// periodically asks every local matcher for the per-dimension union of its
// stored subscriptions' predicates (KindSummaryRequest); the border merges
// those unions into the cluster summary it gossips to peer clusters. The
// computation enumerates every dimension set's index with All, and copies of one
// subscription stored on several dimension sets dedup by ID.

// summaryMaxRanges caps the per-dimension interval count of one matcher's
// response. Borders re-merge and re-cap across matchers, so this only
// bounds the transfer; widening here can add false-positive volume but
// never drop covered volume (core.MergeRanges).
const summaryMaxRanges = 256

// handleSummaryRequest answers a border's interest-summary pull. The
// version is the mutation counter sampled before enumeration: a mutation
// racing the scan makes the next pull's IfVersion miss, re-enumerating —
// staleness is bounded by the border's pull cadence, never permanent.
func (m *Matcher) handleSummaryRequest(b *wire.SummaryRequestBody) *wire.Envelope {
	v := m.mutations.Load()
	resp := &wire.SummaryResponseBody{Version: v}
	if b.IfVersion != 0 && b.IfVersion == v {
		resp.Unchanged = true
	} else {
		resp.Dims = m.InterestSummary(summaryMaxRanges)
	}
	return &wire.Envelope{Kind: wire.KindSummaryResponse, From: m.cfg.ID,
		Body: resp.Encode()}
}

// InterestSummary enumerates every dimension set and returns, per
// space dimension, the merged disjoint interval union over all stored
// subscriptions' predicates, capped at maxRanges intervals per dimension.
// Border-owned subscribers (core.IsFederationSubscriber) are excluded so
// remote interest registered by the local border tier never leaks back
// into this cluster's own summary. Deterministic for a given subscription
// set: enumeration feeds a sorted merge, so arrival order does not
// affect the result.
func (m *Matcher) InterestSummary(maxRanges int) [][]core.Range {
	k := m.cfg.Space.K()
	seen := make(map[core.SubscriptionID]*core.Subscription)
	for _, ds := range m.dims {
		ds.mu.RLock()
		for _, s := range ds.idx.All(nil) {
			if core.IsFederationSubscriber(s.Subscriber) {
				continue
			}
			seen[s.ID] = s
		}
		ds.mu.RUnlock()
	}
	dims := make([][]core.Range, k)
	for _, s := range seen {
		for j := 0; j < k && j < len(s.Predicates); j++ {
			dims[j] = append(dims[j], s.Predicates[j])
		}
	}
	for j := range dims {
		dims[j] = core.MergeRanges(dims[j], maxRanges)
	}
	return dims
}
