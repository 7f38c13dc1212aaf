package main

import (
	"slices"
	"sync"
	"time"

	"bluedove/internal/core"
)

// phaseResult is what one measured phase observed.
type phaseResult struct {
	name       string
	from, to   uint64 // publication sequence range
	start, end int64  // ns
	attempted  int
	refused    int
	missing    int
	// lagEnd is how far behind schedule the open-loop generators were when
	// the phase ended (0 in a closed loop).
	lagEnd time.Duration
}

func (p *phaseResult) failed() int { return p.refused + p.missing }

// runPhase drives every publisher for d. With rate 0 the loop is closed:
// each generator keeps at most maxOutstanding publications in flight. With
// rate > 0 the loop is open: publications fall due on a fixed schedule
// shared evenly among the generators, whatever the system does, and each is
// timed from its due instant.
func (sys *system) runPhase(name string, d time.Duration, rate float64) phaseResult {
	t := sys.t
	res := phaseResult{name: name, from: t.next.Load(), start: nowNs()}
	if t.trace != nil {
		t.trace.beginPhase(name)
	}
	deadline := time.Now().Add(d)
	lags := make([]time.Duration, len(sys.pubs))
	var wg sync.WaitGroup
	for g, pub := range sys.pubs {
		for len(t.tokens[g]) > 0 { // tokens of publications an earlier phase lost
			<-t.tokens[g]
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			payload := make([]byte, payloadSize)
			if rate == 0 {
				closedLoop(t, g, pub, payload, deadline)
			} else {
				lags[g] = openLoop(t, g, pub, payload, deadline, rate/float64(len(sys.pubs)))
			}
		}()
	}
	stopChurn := sys.startChurn()
	wg.Wait()
	stopChurn()
	res.to, res.end = t.next.Load(), nowNs()
	res.lagEnd = slices.Max(lags)

	t.waitDone(res.from, res.to, time.Now().Add(deliveryDeadline))
	for seq := res.from; seq < res.to; seq++ {
		r := &t.recs[seq]
		res.attempted++
		switch {
		case r.refused:
			res.refused++
		case r.done.Load() == 0:
			res.missing++
		}
	}
	if t.trace != nil {
		t.trace.endPhase(name, res.start, res.end)
	}
	return res
}

func closedLoop(t *tracker, g int, pub publisher, payload []byte, deadline time.Time) {
	timer := time.NewTimer(time.Until(deadline))
	defer timer.Stop()
	for n := 0; ; n++ {
		select {
		case t.tokens[g] <- struct{}{}:
		case <-timer.C:
			return
		}
		// The clock is read every few sends; a send is far shorter than the
		// phase's resolution.
		if n%16 == 0 && time.Now().After(deadline) {
			return
		}
		if !t.publish(g, pub, payload, 0) {
			return
		}
	}
}

// openLoop sends at a fixed rate. Publication i of this generator is due at
// start + i/rate; when the generator wakes late it sends everything already
// due, each stamped with its own due time, so a stall is charged to the
// publications it delayed. It returns how far behind schedule it finished.
func openLoop(t *tracker, g int, pub publisher, payload []byte, deadline time.Time, rate float64) time.Duration {
	start := nowNs()
	end := start + int64(time.Until(deadline))
	interval := float64(time.Second) / rate
	var lag int64
	for i := 0; ; i++ {
		due := start + int64(float64(i)*interval)
		if due >= end {
			return time.Duration(lag)
		}
		// time.Sleep on an otherwise idle process wakes up to a millisecond
		// late (the runtime parks in epoll_wait, which counts whole
		// milliseconds). The publication is still timed from due; how late
		// the generator ran is reported beside the latency.
		if wait := due - nowNs(); wait > 0 {
			time.Sleep(time.Duration(wait))
		}
		if !t.publish(g, pub, payload, due) {
			return time.Duration(lag)
		}
		lag = max(nowNs()-due, 0)
	}
}

// startChurn runs the workload's subscribe/unsubscribe stream beside the
// publishers: every tick it adds one subscription or removes the oldest it
// added, holding about 64 live. The churn client's own deliveries are
// ignored and its subscription IDs never enter the oracle.
func (sys *system) startChurn() (stop func()) {
	if sys.churn == nil {
		return func() {}
	}
	quit := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(time.Duration(float64(time.Second) / sys.w.churnRate))
		defer tick.Stop()
		var live []core.SubscriptionID
		for n := uint64(0); ; n++ {
			select {
			case <-quit:
				for _, id := range live {
					_ = sys.churn.Unsubscribe(id) // best-effort tidy-up; the cluster is torn down next
				}
				return
			case <-tick.C:
			}
			start := nowNs()
			sys.churnOps++
			name := "client.subscribe"
			var err error
			if len(live) < 64 || n%2 == 0 {
				var id core.SubscriptionID
				if id, err = sys.churn.Subscribe(sys.in.churn.Subscription().Predicates); err == nil {
					live = append(live, id)
				}
			} else {
				name = "client.unsubscribe"
				err = sys.churn.Unsubscribe(live[0])
				live = live[1:]
			}
			if err != nil {
				sys.churnFailed++
			}
			if sys.t.trace != nil {
				sys.t.trace.span(name, n, start, nowNs())
			}
		}
	}()
	return func() { close(quit); wg.Wait() }
}
