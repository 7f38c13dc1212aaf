// Overload control: busy-NACK handling and candidate re-routing.
//
// A matcher whose dimension stage is full replies to a forward with a
// compact busy NACK (one Busy entry per rejected publication in a
// ForwardAckBatch) instead of dropping it silently. The dispatcher reacts by
// retrying the publication at the next-best candidate from the policy
// ranking — one extra hop, no timer wait — governed by a per-message retry
// budget (Config.RetryBudget) and an exponential backoff with full jitter
// for repeat offenders (Config.RerouteBackoff). Every busy NACK also feeds
// the destination's circuit breaker and corrects the local load view with
// the NACK's fresher queue depth. A ForwardBatch frame the transport cannot
// send is re-routed the same way, one publication at a time.

package dispatcher

import (
	"time"

	"bluedove/internal/core"
	"bluedove/internal/wire"
)

// copyTried snapshots a tried-candidates set so it can be read outside the
// dispatcher lock while the live map keeps being updated under it.
func copyTried(m map[core.NodeID]bool) map[core.NodeID]bool {
	c := make(map[core.NodeID]bool, len(m)+1)
	for k, v := range m {
		c[k] = v
	}
	return c
}

// trackRouteLocked retains a non-persistent forward so a busy NACK or a
// failed send can re-route it. Entries die on ack or expire after two retry
// intervals; past the MaxInflight cap new forwards fall back to untracked
// best-effort. The caller holds d.mu.
func (d *Dispatcher) trackRouteLocked(msg *core.Message, to core.NodeID, now int64) {
	if len(d.routes) < d.cfg.MaxInflight {
		d.routes[msg.ID] = &routeState{
			msg:     msg,
			tried:   map[core.NodeID]bool{to: true},
			expires: now + 2*int64(d.cfg.RetryInterval),
		}
	}
}

// handleBusy reacts to one busy NACK from matcher `from` for message `id`:
// feed the breaker, correct the load view with the NACK's queue depth, and
// re-route the publication.
func (d *Dispatcher) handleBusy(from core.NodeID, id core.MessageID, dim, queueLen int) {
	d.BusyReceived.Add(1)
	d.breaker.Failure(from)
	if dim >= 0 {
		// The NACK carries a fresher queue depth than the last load report:
		// fold it into the load view so ranking sees the hot spot right away.
		now := d.cfg.Now()
		d.mu.Lock()
		if ls := d.loads[from]; dim < len(ls) {
			ls[dim].QueueLen = queueLen
			ls[dim].ReportedAt = now
		}
		d.mu.Unlock()
	}
	d.reroute(from, id, dim)
}

// sendFailed handles a ForwardBatch frame that could not be sent to node.
// Each entry feeds the breaker, as one failed send per publication would,
// and is re-routed like a busy-NACKed one. A publication the dispatcher does
// not track (RetryBudget < 0 without persistence, or past MaxInflight) is
// lost, and counted in DroppedNoCandidate.
func (d *Dispatcher) sendFailed(node core.NodeID, entries []wire.ForwardEntry) {
	for i := range entries {
		d.breaker.Failure(node)
		if !d.reroute(node, entries[i].Msg.ID, entries[i].Dim) {
			d.DroppedNoCandidate.Add(1)
		}
	}
}

// reroute takes back one forward of message id on dimension dim that matcher
// `from` did not accept (a busy NACK or a failed send) and, within the retry
// budget, re-routes the publication to the next-best candidate. The first
// re-route is immediate; later ones wait a full-jitter exponential backoff
// so a cluster-wide hot spot is not hammered in lockstep. It reports whether
// the dispatcher tracks the publication.
func (d *Dispatcher) reroute(from core.NodeID, id core.MessageID, dim int) bool {
	d.mu.Lock()
	// The forward never joined the matcher's queue.
	if p := d.pending[from]; dim >= 0 && dim < len(p) && p[dim] > 0 {
		p[dim]--
	}
	tracked, attempt := false, 0
	if inf := d.inflight[id]; inf != nil {
		tracked = true
		if d.cfg.RetryBudget > 0 {
			inf.tried[from] = true
			if inf.reroutes < d.cfg.RetryBudget {
				inf.reroutes++
				attempt = inf.reroutes
			}
		}
	} else if rs := d.routes[id]; rs != nil {
		tracked = true
		rs.tried[from] = true
		if rs.reroutes < d.cfg.RetryBudget {
			rs.reroutes++
			attempt = rs.reroutes
		}
	}
	var delay time.Duration
	if attempt > 1 {
		// Full jitter: uniform in [0, base<<(attempt-2)].
		base := int64(d.cfg.RerouteBackoff) << (attempt - 2)
		delay = time.Duration(d.rng.Int63n(base + 1))
	}
	spawn := attempt > 1 && !d.stopping
	if spawn {
		d.wg.Add(1) // under d.mu, so it cannot race Stop's wg.Wait
	}
	d.mu.Unlock()

	if attempt == 1 {
		d.rerouteNow(id)
		return tracked
	}
	if !spawn {
		return tracked
	}
	go func() {
		defer d.wg.Done()
		t := time.NewTimer(delay)
		defer t.Stop()
		select {
		case <-d.stop:
			return
		case <-t.C:
		}
		d.rerouteNow(id)
	}()
	return tracked
}

// rerouteNow re-forwards a publication a matcher did not accept to the best
// candidate not yet tried, if it is still unacked.
func (d *Dispatcher) rerouteNow(id core.MessageID) {
	d.mu.Lock()
	t := d.table
	var msg *core.Message
	var tried map[core.NodeID]bool
	if inf := d.inflight[id]; inf != nil {
		msg, tried = inf.msg, copyTried(inf.tried)
	} else if rs := d.routes[id]; rs != nil {
		msg, tried = rs.msg, copyTried(rs.tried)
	}
	d.mu.Unlock()
	if t == nil || msg == nil {
		return // acked (or never tracked) in the meantime
	}
	sent, to := d.forwardOnce(t, msg, tried)
	if !sent {
		return // no alternate candidate; persistence's retransmit loop may still save it
	}
	d.Rerouted.Add(1)
	d.mu.Lock()
	if inf := d.inflight[id]; inf != nil {
		inf.tried[to] = true
	} else if rs := d.routes[id]; rs != nil {
		rs.tried[to] = true
	}
	d.mu.Unlock()
}

// sweepRoutesLoop expires stale non-persistent route state (forwards whose
// matcher died without acking or NACKing) so the table stays bounded.
func (d *Dispatcher) sweepRoutesLoop() {
	defer d.wg.Done()
	tick := d.cfg.RetryInterval
	if tick < time.Millisecond {
		tick = time.Millisecond
	}
	ticker := time.NewTicker(tick)
	defer ticker.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-ticker.C:
			now := d.cfg.Now()
			d.mu.Lock()
			for id, rs := range d.routes {
				if rs.expires <= now {
					delete(d.routes, id)
				}
			}
			d.mu.Unlock()
		}
	}
}

// RoutesLen returns the number of tracked non-persistent forwards (tests).
func (d *Dispatcher) RoutesLen() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.routes)
}
