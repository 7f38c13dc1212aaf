package experiment

import (
	"fmt"
	"time"

	"bluedove/internal/sim"
	"bluedove/internal/workload"
)

// OverheadResult reproduces the Section IV-C maintenance-overhead
// measurement: gossip traffic per matcher, segment-table pulls per
// dispatcher, and load-report pushes — the three components the paper
// itemizes (≈2.9 KB/s gossip, 60·N B per pull every 10 s, 64 B pushes,
// totalling ≈2.9K+20·D B/s per matcher).
type OverheadResult struct {
	// Scale names the run scale.
	Scale string
	// Matchers and Dispatchers are the measured deployment size.
	Matchers, Dispatchers int
	// DurationSec is the measurement window.
	DurationSec float64
	// GossipBpsPerMatcher is matcher↔matcher gossip bytes/second/matcher.
	GossipBpsPerMatcher float64
	// PullBpsPerDispatcher is table-pull bytes/second/dispatcher.
	PullBpsPerDispatcher float64
	// PushBpsPerMatcher is load-report bytes/second/matcher.
	PushBpsPerMatcher float64
	// TotalBpsPerMatcher is the per-matcher total (gossip + pushes +
	// amortized pulls).
	TotalBpsPerMatcher float64
	// TableBytes is the encoded segment-table size.
	TableBytes int
}

// Overhead measures maintenance traffic on a loaded 20-matcher cluster.
func Overhead(sc Scale) *OverheadResult {
	n := sc.MatcherCounts[len(sc.MatcherCounts)-1]
	cl := sim.NewCluster(sc.VariantConfig(n, BlueDoveVariant()))
	wcfg := sc.Workload()
	cl.SubscribeAll(workload.New(wcfg).Subscriptions(sc.Subs))
	const dur = 60 * time.Second
	gen := workload.New(wcfg)
	cl.Drive(gen, workload.ConstantRate(500), int64(dur))
	cl.RunUntil(int64(dur))

	st := cl.Stats()
	secs := dur.Seconds()
	d := sim.Dispatchers
	r := &OverheadResult{
		Scale:       sc.Name,
		Matchers:    n,
		Dispatchers: d,
		DurationSec: secs,
		TableBytes:  len(cl.Table().Encode()),
	}
	r.GossipBpsPerMatcher = float64(st.GossipBytes.Value()) / secs / float64(n)
	r.PullBpsPerDispatcher = float64(st.TablePullBytes.Value()) / secs / float64(d)
	r.PushBpsPerMatcher = float64(st.LoadPushBytes.Value()) / secs / float64(n)
	r.TotalBpsPerMatcher = r.GossipBpsPerMatcher + r.PushBpsPerMatcher +
		float64(st.TablePullBytes.Value())/secs/float64(n)
	return r
}

// Table renders the overhead breakdown.
func (r *OverheadResult) Table() *Table {
	t := &Table{
		Title: fmt.Sprintf("Section IV-C: overlay maintenance overhead, %d matchers / %d dispatchers (%s scale)",
			r.Matchers, r.Dispatchers, r.Scale),
		Note:   "paper: ~2.9 KB/s gossip per matcher, 60N B per table pull / 10s, 64 B load pushes; total ≈ 2.9K+20D B/s",
		Header: []string{"component", "bytes/s"},
	}
	t.AddRow("gossip per matcher", r.GossipBpsPerMatcher)
	t.AddRow("table pull per dispatcher", r.PullBpsPerDispatcher)
	t.AddRow("load push per matcher", r.PushBpsPerMatcher)
	t.AddRow("total per matcher", r.TotalBpsPerMatcher)
	t.AddRow("segment table bytes", r.TableBytes)
	return t
}
