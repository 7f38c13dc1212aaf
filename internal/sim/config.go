package sim

import (
	"time"

	"bluedove/internal/core"
	"bluedove/internal/elastic"
	"bluedove/internal/forward"
	"bluedove/internal/index"
	"bluedove/internal/placement"
)

// Dispatchers is the modeled dispatcher count (the paper's testbed runs 2).
const Dispatchers = 2

// The rest of the paper's testbed, fixed: no figure varies these.
const (
	// netDelay is the one-hop Gigabit-LAN latency.
	netDelay = 500 * time.Microsecond
	// dispatchCost is the dispatcher's per-message processing time, modeled
	// as added latency without queueing — the paper measured dispatching to
	// be two orders of magnitude cheaper than matching.
	dispatchCost = 5 * time.Microsecond
	// perDeliverCost is the matcher's service time per matched subscription
	// delivered.
	perDeliverCost = time.Microsecond
	// reportDeltaFrac suppresses load reports when no per-dimension queue or
	// rate changed by more than this fraction (Section IV-C: pushes on >10%
	// change).
	reportDeltaFrac = 0.1
	// rateWindow is the λ/μ measurement window w.
	rateWindow = 2 * time.Second
	// tablePullInterval is the dispatcher segment-table pull cadence.
	tablePullInterval = 10 * time.Second
	// tablePropagateDelay is the time for a new segment table to reach all
	// dispatchers after a join/leave (gossip rounds).
	tablePropagateDelay = 2 * time.Second
	// persistMaxAttempts caps re-forwards per persistent message.
	persistMaxAttempts = 20
	// persistRetryDelay is the wait before a persistent message retries when
	// no alive candidate exists.
	persistRetryDelay = 500 * time.Millisecond
	// sampleEvery records one response-time point per this many completions
	// into the time series (histograms record every sample).
	sampleEvery = 20
)

// Config parameterizes a simulated cluster. Zero fields take the defaults
// documented per field (applied by withDefaults), which — with the
// constants above — model the paper's testbed: Gigabit-LAN latencies, 1 s
// load reports pushed on >10% change, 10 s table pulls, and a matching cost
// dominated by the number of subscriptions scanned.
type Config struct {
	// Space is the attribute space; required.
	Space *core.Space
	// Matchers is the initial matcher count; required (>0).
	Matchers int
	// Strategy is the placement strategy (default placement.BlueDove{}).
	Strategy placement.Strategy
	// Policy is the forwarding policy (default forward.Adaptive{}).
	Policy forward.Policy
	// IndexKind selects the per-dimension matcher index, and with it the
	// scanned count the cost model charges (zero value: index.KindBucket).
	IndexKind index.Kind

	// BaseMatchCost is the fixed per-message matching overhead
	// (default 20µs).
	BaseMatchCost time.Duration
	// PerScanCost is the service time per subscription scanned
	// (default 300ns — calibrated so a 40k-subscription full scan costs
	// ~12ms, matching the paper's full-replication throughput).
	PerScanCost time.Duration

	// ReportInterval is the matcher load-report cadence (default 1s).
	ReportInterval time.Duration
	// FailureDetectDelay is the time between a matcher crash and all
	// dispatchers marking it dead (gossip heartbeat timeout; default 10s).
	FailureDetectDelay time.Duration
	// RecoveryDelay is the additional time after failure detection before
	// subscriptions are re-installed onto surviving matchers (default 5s).
	RecoveryDelay time.Duration

	// Elastic enables the elasticity controller — the same elastic.Controller
	// the real cluster embeds, driven by the virtual clock: sustained high
	// utilization joins a matcher, sustained idle drains one, and a σ-skew
	// signature splits the hot matcher's segment (Figure 9's experiment and
	// beyond).
	Elastic bool
	// ElasticCheckInterval is the controller's scrape cadence (default 5s).
	ElasticCheckInterval time.Duration
	// ElasticConfig tunes the embedded controller (watermarks, hysteresis,
	// cooldown rounds, matcher floor/ceiling). Zero fields take
	// elastic.Config defaults.
	ElasticConfig elastic.Config

	// Persistent enables the message-persistence extension (paper Section
	// VI future work: "add message persistence mechanism to support
	// applications that do not tolerate message loss"): dispatchers retain
	// forwarded messages until matched, and messages caught on a crashed
	// matcher — queued, in service, or sent before failure detection — are
	// re-forwarded to surviving candidates instead of being lost.
	Persistent bool

	// Seed drives all randomized decisions (default 1).
	Seed int64
	// OnDeliver, when set, is invoked at each message completion with the
	// message and the subscriptions it matched (delivery to subscribers).
	OnDeliver func(m *core.Message, matched []*core.Subscription)
}

func (c Config) withDefaults() Config {
	if c.Space == nil {
		panic("sim: Config.Space is required")
	}
	if c.Matchers <= 0 {
		panic("sim: Config.Matchers must be positive")
	}
	if c.Strategy == nil {
		c.Strategy = placement.BlueDove{}
	}
	if c.Policy == nil {
		c.Policy = forward.Adaptive{}
	}
	if c.BaseMatchCost <= 0 {
		c.BaseMatchCost = 20 * time.Microsecond
	}
	if c.PerScanCost <= 0 {
		c.PerScanCost = 300 * time.Nanosecond
	}
	if c.ReportInterval <= 0 {
		c.ReportInterval = time.Second
	}
	if c.FailureDetectDelay <= 0 {
		c.FailureDetectDelay = 10 * time.Second
	}
	if c.RecoveryDelay <= 0 {
		c.RecoveryDelay = 5 * time.Second
	}
	if c.ElasticCheckInterval <= 0 {
		c.ElasticCheckInterval = 5 * time.Second
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}
