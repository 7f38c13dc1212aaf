package dispatcher

import (
	"bluedove/internal/core"
	"bluedove/internal/telemetry"
)

// registerTelemetry publishes the dispatcher's counters, gauges and latency
// histograms under the node's registry (stable dotted names; the registry's
// base labels identify the node). Called once from Start.
func (d *Dispatcher) registerTelemetry() {
	r := d.cfg.Telemetry.Registry
	r.Gauge("node.info", "constant 1; labels identify the node", func(int64) float64 { return 1 })
	r.Counter("dispatcher.published", "publications accepted from clients", &d.Published)
	r.Counter("dispatcher.forwarded", "publications forwarded to a matcher", &d.Forwarded)
	r.Counter("dispatcher.dropped_no_candidate",
		"publications lost: no alive candidate, untracked failed send, re-route dead end or retransmit give-up",
		&d.DroppedNoCandidate)
	r.Counter("dispatcher.retransmits", "persistence re-forwards of unacked publications", &d.Retransmits)
	r.Counter("dispatcher.forward_batches", "ForwardBatch frames sent", &d.ForwardBatches)
	r.Counter("dispatcher.pull_bytes", "table-pull response traffic", &d.PullBytes)
	r.Counter("dispatcher.busy_received", "busy NACKs received from matchers", &d.BusyReceived)
	r.Counter("forward.rerouted", "publications re-routed to an alternate candidate after a busy NACK", &d.Rerouted)
	r.Counter("dispatcher.overloaded", "publications rejected at admission control", &d.Overloaded)
	// Registered even without a journal (always zero then) so the scrape
	// contract can require the series on every dispatcher.
	r.Counter("dispatcher.journal_errors", "journal appends/snapshots that failed", &d.JournalErrors)
	r.Gauge("dispatcher.inflight", "tracked unacked forwards, persistent or not", func(int64) float64 {
		return float64(d.InflightLen())
	})
	if d.breaker != nil {
		br := d.breaker
		r.Counter("forward.breaker_tripped", "circuit breaker closed-to-open transitions", &br.Tripped)
		r.Gauge("forward.breaker_open", "destinations with an open circuit breaker", func(int64) float64 {
			open, _ := br.Counts()
			return float64(open)
		})
		r.Gauge("forward.breaker_half_open", "destinations in the half-open probe window", func(int64) float64 {
			_, half := br.Counts()
			return float64(half)
		})
	}
	r.Gauge("dispatcher.registry_size", "subscriptions registered through this node", func(int64) float64 {
		return float64(d.RegistrySize())
	})
	r.Histogram("dispatcher.forward_latency_seconds",
		"ingest to forward-ack per traced publication", d.fwdLatency, 1e-9)
	r.Histogram("dispatcher.deliver_latency_seconds",
		"publish to first delivery per traced publication", d.e2eLatency, 1e-9)
	if d.jnl != nil {
		d.jnl.Register(r)
	}
	tr := d.cfg.Telemetry.Tracer
	r.Gauge("trace.pending", "traces awaiting their forward ack", func(int64) float64 {
		return float64(tr.PendingLen())
	})
	r.Gauge("trace.completed", "traces recorded on this node", func(int64) float64 {
		return float64(tr.Total())
	})
	r.Counter("gossip.bytes", "gossip payload traffic", &d.gsp.Bytes)
}

// completeTrace joins an acked trace context with the locally retained one,
// stamps the ack hop, retains the completed trace, and feeds the latency
// histograms.
func (d *Dispatcher) completeTrace(id core.MessageID, acked *core.TraceCtx) {
	now := d.cfg.Now()
	ctx := d.cfg.Telemetry.Tracer.CompleteAck(id, acked, now)
	if in := ctx.Hops[core.HopIngest]; in != 0 {
		d.fwdLatency.Observe(now - in)
	}
	if del, pub := ctx.Hops[core.HopDeliver], ctx.Hops[core.HopPublish]; del != 0 && pub != 0 {
		d.e2eLatency.Observe(del - pub)
	}
}

// Telemetry returns the node's telemetry bundle (nil when disabled).
func (d *Dispatcher) Telemetry() *telemetry.Telemetry { return d.cfg.Telemetry }
