package sim

import (
	"bluedove/internal/metrics"
)

// Stats aggregates a simulated cluster's measurements: the response-time
// histogram and time series (the paper's primary metric), arrival/loss
// counters and the 1-second loss-rate series (Figure 10), membership-change
// counters, and the three overlay maintenance overhead counters (Section
// IV-C's overhead breakdown).
type Stats struct {
	// RespHist records every completed message's response time (ns).
	RespHist *metrics.Histogram
	// RespSeries records sampled response times (seconds), keyed by the
	// message's arrival time (as in the paper's time-series figures: the
	// response experienced by messages published at time t).
	RespSeries *metrics.Series
	// LossSeries records the per-second message loss fraction over time.
	LossSeries *metrics.Series

	// Arrived counts messages accepted by dispatchers.
	Arrived metrics.Counter
	// Completed counts messages fully matched and delivered.
	Completed metrics.Counter
	// Lost counts messages dropped (dead matcher, no candidate).
	Lost metrics.Counter
	// Subscriptions counts registered subscriptions.
	Subscriptions metrics.Counter
	// Failures counts matcher crashes injected.
	Failures metrics.Counter
	// Joins counts matchers added.
	Joins metrics.Counter
	// Leaves counts matchers gracefully drained and removed (scale-down).
	Leaves metrics.Counter
	// Splits counts hot-segment splits.
	Splits metrics.Counter
	// PersistRetries counts re-forwards by the persistence extension.
	PersistRetries metrics.Counter

	// GossipBytes counts matcher↔matcher gossip traffic.
	GossipBytes metrics.Counter
	// TablePullBytes counts dispatcher segment-table pulls.
	TablePullBytes metrics.Counter
	// LoadPushBytes counts matcher→dispatcher load reports.
	LoadPushBytes metrics.Counter

	sampleCount  int64
	lossMarkLost int64
	lossMarkArr  int64
}

func newStats() *Stats {
	return &Stats{
		RespHist:   metrics.NewHistogram(),
		RespSeries: metrics.NewSeries("response_time_s"),
		LossSeries: metrics.NewSeries("loss_rate"),
	}
}

func (s *Stats) recordResponse(publishedAt, respNs int64) {
	s.Completed.Add(1)
	s.RespHist.Observe(respNs)
	s.sampleCount++
	if s.sampleCount%sampleEvery == 0 {
		s.RespSeries.Append(publishedAt, float64(respNs)/1e9)
	}
}

func (s *Stats) recordLoss(now int64) { s.Lost.Add(1) }

// sampleLoss appends one loss-rate point covering the last second.
func (s *Stats) sampleLoss(now int64) {
	lost := s.Lost.Value()
	arr := s.Arrived.Value()
	dl := lost - s.lossMarkLost
	da := arr - s.lossMarkArr
	s.lossMarkLost = lost
	s.lossMarkArr = arr
	if da <= 0 {
		s.LossSeries.Append(now, 0)
		return
	}
	s.LossSeries.Append(now, float64(dl)/float64(da))
}

// Backlog returns arrived − completed − lost: messages still in flight or
// queued.
func (s *Stats) Backlog() int64 {
	return s.Arrived.Value() - s.Completed.Value() - s.Lost.Value()
}

// LossFraction returns lost/arrived over the whole run (0 when nothing
// arrived).
func (s *Stats) LossFraction() float64 {
	a := s.Arrived.Value()
	if a == 0 {
		return 0
	}
	return float64(s.Lost.Value()) / float64(a)
}
