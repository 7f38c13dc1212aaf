package matcher

import (
	"strconv"

	"bluedove/internal/telemetry"
)

// registerTelemetry publishes the matcher's counters, per-dimension stage
// gauges (the same λ/μ/queue figures the load reports carry) and latency
// histograms under the node's registry. Called once from Start, after the
// dimension stages exist.
func (m *Matcher) registerTelemetry() {
	r := m.cfg.Telemetry.Registry
	r.Gauge("node.info", "constant 1; labels identify the node", func(int64) float64 { return 1 })
	r.Counter("matcher.matched", "subscriptions matched (deliveries attempted)", &m.Matched)
	r.Counter("matcher.delivered", "matched subscriptions actually sent a delivery", &m.Delivered)
	r.Counter("matcher.processed", "forwarded messages matched (stage completions)", &m.Processed)
	r.Counter("matcher.dropped", "forwarded messages rejected by stage backpressure", &m.Dropped)
	r.Counter("matcher.busy_nacks", "busy NACKs sent back to dispatchers", &m.BusyNacks)
	r.Counter("matcher.shed_expired", "publications shed at dequeue because their TTL expired", &m.Shed)
	r.Counter("matcher.scanned", "stored subscriptions examined by stab+verify", &m.Scanned)
	r.Gauge("matcher.scanned_per_msg", "subscriptions scanned per matched message (index efficiency)", func(int64) float64 {
		p := m.Processed.Value()
		if p == 0 {
			return 0
		}
		return float64(m.Scanned.Value()) / float64(p)
	})
	r.Counter("matcher.report_bytes", "load-report traffic", &m.ReportBytes)
	// Registered even without a journal (always zero then) so the scrape
	// contract can require the series on every matcher.
	r.Counter("matcher.journal_errors", "journal appends/snapshots that failed", &m.JournalErrors)
	r.Histogram("matcher.match_latency_seconds",
		"stage dequeue to match done per traced publication", m.matchLatency, 1e-9)
	for i, ds := range m.dims {
		dim := telemetry.L("dim", strconv.Itoa(i))
		set := ds
		r.Gauge("matcher.stage.queue_depth", "stage backlog (messages)", func(int64) float64 {
			return float64(set.stage.EventLen())
		}, dim)
		r.Gauge("matcher.stage.arrival_rate", "stage arrival rate lambda (msg/s)", func(int64) float64 {
			return set.stage.ArrivalRate()
		}, dim)
		r.Gauge("matcher.stage.service_capacity", "stage service capacity mu (msg/s)", func(int64) float64 {
			return set.stage.ServiceCapacity()
		}, dim)
		r.Gauge("matcher.stage.subs", "subscriptions stored on this dimension", func(int64) float64 {
			return float64(set.subsCount())
		}, dim)
	}
	if m.jnl != nil {
		m.jnl.Register(r)
	}
	tr := m.cfg.Telemetry.Tracer
	r.Gauge("trace.completed", "traces recorded on this node", func(int64) float64 {
		return float64(tr.Total())
	})
	r.Counter("gossip.bytes", "gossip payload traffic", &m.gsp.Bytes)
}

// Telemetry returns the node's telemetry bundle (nil when disabled).
func (m *Matcher) Telemetry() *telemetry.Telemetry { return m.cfg.Telemetry }
