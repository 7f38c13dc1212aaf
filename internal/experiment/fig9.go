package experiment

import (
	"fmt"
	"time"

	"bluedove/internal/metrics"
	"bluedove/internal/sim"
	"bluedove/internal/workload"
)

// Fig9Result reproduces Figure 9 (elasticity): the message rate ramps up in
// steps; whenever a dispatcher detects saturation a new matcher joins, and
// the response time drops back within seconds.
type Fig9Result struct {
	// Scale names the run scale.
	Scale string
	// StartMatchers is the initial system size (paper: 5).
	StartMatchers int
	// Ramp describes the applied schedule.
	Ramp workload.StepRamp
	// Resp is the 1-second-averaged response time (seconds) over the run.
	Resp []metrics.Point
	// JoinTimesSec lists when new matchers joined (seconds).
	JoinTimesSec []float64
	// FinalMatchers is the matcher count at the end of the run.
	FinalMatchers int
}

// Fig9 regenerates Figure 9 at the given scale. The ramp is sized to the
// measured capacity of the starting system so the controller is exercised
// regardless of scale.
func Fig9(sc Scale) *Fig9Result {
	wcfg := sc.Workload()
	subs := workload.New(wcfg).Subscriptions(sc.Subs)
	start := sc.MatcherCounts[0]
	cap0 := SaturationRate(sc, start, BlueDoveVariant(), wcfg, subs)

	cfg := sc.SimConfig(start, BlueDoveVariant().Strategy, BlueDoveVariant().Policy)
	cfg.Elastic = true
	cfg.ElasticCheckInterval = 5 * time.Second
	cfg.ElasticConfig.CooldownRounds = 3 // 15 s at the 5 s scrape cadence
	cl := sim.NewCluster(cfg)
	cl.SubscribeAll(subs)

	// Paper: +500 msg/s every 5 minutes from 500 msg/s. Scaled: start at
	// 70% of the 5-matcher capacity and add 15% of it every 40 seconds, so
	// each matcher join (+~20% capacity) outpaces the ramp and the response
	// time recovers between steps, as in the paper's figure.
	ramp := workload.StepRamp{
		Initial:   0.7 * cap0,
		Increment: 0.15 * cap0,
		Interval:  40 * time.Second,
	}
	const dur = 6 * time.Minute
	gen := workload.New(wcfg)
	cl.Drive(gen, ramp, int64(dur))
	cl.RunUntil(int64(dur))
	// Drain so every arrival's response is recorded (series keyed by
	// arrival time).
	for i := 0; i < 120 && cl.TotalBacklog() > 0; i++ {
		cl.RunFor(time.Second)
	}

	r := &Fig9Result{
		Scale:         sc.Name,
		StartMatchers: start,
		Ramp:          ramp,
		Resp:          cl.Stats().RespSeries.Downsample(int64(time.Second)),
		FinalMatchers: len(cl.Matchers()),
	}
	for _, t := range cl.JoinTimes() {
		r.JoinTimesSec = append(r.JoinTimesSec, float64(t)/1e9)
	}
	return r
}

// Table renders the response-time series with join markers.
func (r *Fig9Result) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Figure 9: elasticity under a rate ramp, starting at %d matchers (%s scale)", r.StartMatchers, r.Scale),
		Note: fmt.Sprintf("paper: response drops ~5s after each join; joins here at %v s; final size %d",
			compactTimes(r.JoinTimesSec), r.FinalMatchers),
		Header: []string{"t(s)", "response (s)", "event"},
	}
	joins := map[int64]bool{}
	for _, j := range r.JoinTimesSec {
		joins[int64(j)] = true
	}
	for _, p := range r.Resp {
		sec := p.T / 1e9
		ev := ""
		if joins[sec] {
			ev = "+matcher"
		}
		t.AddRow(sec, p.V, ev)
	}
	return t
}

func compactTimes(ts []float64) []string {
	out := make([]string, len(ts))
	for i, v := range ts {
		out[i] = fmt.Sprintf("%.0f", v)
	}
	return out
}
