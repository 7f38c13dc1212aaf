package main

import (
	"fmt"
	"math"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metricDecl declares one reported metric. BENCHMARK.json carries the same
// table; a unit test keeps the two in step.
type metricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"` // allowed worsening, end-to-end only
}

// endToEnd are the metrics a user of the service would see, the same set on
// every workload. All three carry the widest bound the contract allows: on
// the two-vCPU reference box the same inputs run up to a third slower from
// one minute to the next, and a bound inside that noise would only ever
// report the box.
var endToEnd = []metricDecl{
	{"throughput_msgs_s", "1/s", "higher", 0.25},
	{"delivery_p50_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// outcome is the result of running one workload once.
type outcome struct {
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// Notes are the figures beside the metrics a reader needs to judge them:
	// sample counts, the tail percentile the sample supports, generator
	// lateness, and the breakdown of anything that failed.
	Notes map[string]float64 `json:"notes"`
}

func (o *outcome) set(decls []metricDecl, name string, v float64) {
	for _, d := range decls {
		if d.Name == name {
			o.Metrics[name] = metric{Value: v, Unit: d.Unit}
			return
		}
	}
	panic("undeclared metric " + name)
}

// phaseSplit divides the measured seconds between the closed-loop sat phase
// and the open-loop paced phase.
func phaseSplit(seconds int) (sat, paced time.Duration) {
	sat = time.Duration(float64(seconds) * 0.45 * float64(time.Second)).Round(time.Second)
	sat = max(sat, time.Second)
	paced = max(time.Duration(seconds)*time.Second-sat, time.Second)
	return sat, paced
}

// warmUp is the untimed closed-loop run before measurement: long enough for
// two rounds of matcher load reports to reach the dispatchers, so the
// adaptive forwarding policy measures with the view it has in steady state.
const warmUp = 2500 * time.Millisecond

// recordCapacity bounds the publications one run can record.
func recordCapacity(seconds int) int { return 120_000 * (seconds + 4) }

// satWindow is the window the sat phase's throughput is counted in: long
// enough that the 256 publications a closed loop can have in flight, should
// they all complete in one window after a stall, inflate even the slowest
// workload's count by a few per cent only.
const satWindow = 500 * time.Millisecond

// The box the benchmark runs on slows down for seconds at a time and never
// speeds up, so a phase is cut into short windows and its figure is taken
// from the best tenth of them: the 90th percentile of window throughputs,
// the 10th percentile of window latencies. A uniform slowdown of the code
// moves every window and therefore these figures; a disturbance of the box
// moves only the windows it hits.
const (
	bestThroughput = 0.90
	bestLatency    = 0.10
)

// overWindows returns the q-quantile of per-window figures.
func overWindows(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	return s[int(math.Round(q*float64(len(s)-1)))]
}

// satThroughput is the best-tenth figure over whole windows of the sat phase
// of publications fully delivered in that window, per second. counts holds
// every window's figure.
func satThroughput(t *tracker, p phaseResult) (msgsPerS float64, counts []float64) {
	w := newWindows(p.start, p.end, int64(satWindow))
	counts = make([]float64, w.n)
	for seq := p.from; seq < p.to; seq++ {
		if i := w.index(t.recs[seq].done.Load()); i >= 0 {
			counts[i] += float64(time.Second) / float64(satWindow)
		}
	}
	return overWindows(counts, bestThroughput), counts
}

// pacedLatency reduces the paced phase to its delivery latency in ms. Each
// publication is timed from the instant it was due to the callback of the
// last receiver the oracle expects; one that never arrived counts as the
// delivery deadline. Publications are grouped by due time into windows of at
// least a quarter second and 250 samples; p50 is the best-tenth figure of
// the windows' medians, which p50s holds. all holds every sample, sorted, for
// the tail figures quoted beside it.
func pacedLatency(t *tracker, p phaseResult, rate float64) (p50 float64, p50s []float64, all []int64) {
	width := max(250*time.Millisecond, time.Duration(260/rate*float64(time.Second)))
	w := newWindows(p.start, p.end, int64(width))
	lat := make([][]int64, w.n)
	for seq := p.from; seq < p.to; seq++ {
		r := &t.recs[seq]
		i := w.index(r.due)
		if i < 0 {
			continue
		}
		d := int64(deliveryDeadline)
		if done := r.done.Load(); done != 0 {
			d = done - r.due
		}
		lat[i] = append(lat[i], d)
	}
	for _, l := range lat {
		slices.Sort(l)
		p50s = append(p50s, float64(quantile(l, 0.50))/1e6)
		all = append(all, l...)
	}
	slices.Sort(all)
	return overWindows(p50s, bestLatency), p50s, all
}

// rangeNotes records how far apart the figures lie that a metric was picked
// from (a phase's windows, the repeated set-ups), so a reader can tell a
// quiet run from a disturbed one.
func (o *outcome) rangeNotes(prefix string, xs []float64) {
	if len(xs) == 0 {
		return
	}
	o.Notes[prefix+".n"] = float64(len(xs))
	o.Notes[prefix+".min"] = slices.Min(xs)
	o.Notes[prefix+".median"] = median(xs)
	o.Notes[prefix+".max"] = slices.Max(xs)
}

// tailNotes quotes the phase's tail latency beside the gated median: the
// 99th percentile, and the highest percentile the sample supports with ten
// samples beyond it. They are notes, not gated metrics: on the reference box
// their run-to-run spread is several times the widest bound allowed.
func (o *outcome) tailNotes(all []int64) {
	tail := highestTail(len(all))
	o.Notes["paced.samples"] = float64(len(all))
	o.Notes["paced.p99_ms"] = float64(quantile(all, 0.99)) / 1e6
	o.Notes["paced.tail_percentile"] = tail * 100
	o.Notes["paced.tail_ms"] = float64(quantile(all, tail)) / 1e6
}

// lateness is the median and 99th percentile of how late the open-loop
// generator sent, in ms.
func lateness(t *tracker, p phaseResult) (p50, p99 float64) {
	late := make([]int64, 0, p.to-p.from)
	for seq := p.from; seq < p.to; seq++ {
		late = append(late, t.recs[seq].sent-t.recs[seq].due)
	}
	slices.Sort(late)
	return float64(quantile(late, 0.50)) / 1e6, float64(quantile(late, 0.99)) / 1e6
}

// sentToDelivered is the median in ms from the call into Client.Publish to
// the last expected callback: the delivery latency without the generator's
// own lateness.
func sentToDelivered(t *tracker, p phaseResult) float64 {
	var lat []int64
	for seq := p.from; seq < p.to; seq++ {
		if done := t.recs[seq].done.Load(); done != 0 {
			lat = append(lat, done-t.recs[seq].sent)
		}
	}
	slices.Sort(lat)
	return float64(quantile(lat, 0.50)) / 1e6
}

// tally folds phase failures and oracle rejections into the outcome.
func (o *outcome) tally(sys *system, phases ...phaseResult) {
	for _, p := range phases {
		o.Attempted += p.attempted
		o.Failed += p.failed()
		o.Notes[p.name+".attempted"] += float64(p.attempted)
		o.Notes[p.name+".refused"] += float64(p.refused)
		o.Notes[p.name+".missing"] += float64(p.missing)
	}
	o.Attempted += sys.churnOps
	o.Failed += sys.churnFailed
	bad := &sys.t.bad
	o.Notes["incorrect.wrong"] = float64(bad.wrong.Load())
	o.Notes["incorrect.spurious"] = float64(bad.spurious.Load())
	o.Notes["incorrect.duplicate"] = float64(bad.duplicate.Load())
	o.Notes["incorrect.malformed"] = float64(bad.malformed.Load())
	o.Notes["stale_after_deadline"] = float64(sys.t.stale.Load())
	o.Notes["redelivered"] = float64(sys.t.redelivered.Load())
	for _, d := range sys.c.Dispatchers() {
		o.Notes["dispatcher.retransmits"] += float64(d.Retransmits.Value())
	}
	o.Notes["churn.ops"] = float64(sys.churnOps)
	o.Correct = bad.total() == 0
}

// boxCPU reads the machine's cumulative CPU time and the part of it the
// hypervisor gave to someone else, in clock ticks, from /proc/stat; ok is
// false where that file does not exist. The stolen share over a run is
// noted beside its metrics: it is the one disturbance of a shared box that
// can be read off directly.
func boxCPU() (total, stolen float64, ok bool) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(data), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		v, err := strconv.ParseFloat(f, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; the rest repeat user time
			total += v
		}
		if i == 7 {
			stolen = v
		}
	}
	return total, stolen, true
}

// stealNote starts watching the box and returns a function that records the
// stolen share of CPU time since.
func (o *outcome) stealNote() (done func()) {
	t0, s0, ok := boxCPU()
	return func() {
		if t1, s1, ok1 := boxCPU(); ok && ok1 && t1 > t0 {
			o.Notes["box.steal_share"] = (s1 - s0) / (t1 - t0)
		}
	}
}

// setupRepeats is how many times an untraced run sets the system up; setup_s
// is the fastest. Matchers adopt the segment table on a 1 s gossip tick, so a
// set-up takes N or N+1 ticks by the luck of the phase; the median of a few
// flips between the two, the minimum does not.
const setupRepeats = 3

// runUntraced measures the end-to-end metrics of one workload: set-up
// (repeated, median reported), warm-up, the closed-loop sat phase, a drain,
// and the open-loop paced phase.
func runUntraced(w *mix, seed int64, seconds int, outDir string) (*outcome, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Notes: map[string]float64{}}
	var sys *system
	var setups []float64
	for i := 0; i < setupRepeats; i++ {
		if sys != nil {
			sys.close()
		}
		// Only the last system is measured on; the others need room for
		// their probes alone.
		capacity := 1 << 12
		if i == setupRepeats-1 {
			capacity = recordCapacity(seconds)
		}
		if sys, err = setUp(w, in, capacity, outDir, nil); err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		setups = append(setups, sys.setup.Seconds())
	}
	defer sys.close()

	satDur, pacedDur := phaseSplit(seconds)
	sys.runPhase("warmup", warmUp, 0)
	stolen := o.stealNote()
	sat := sys.runPhase("sat", satDur, 0)
	paced := sys.runPhase("paced", pacedDur, w.pacedRate)
	stolen()

	thr, satWindows := satThroughput(sys.t, sat)
	p50, p50s, all := pacedLatency(sys.t, paced, w.pacedRate)
	o.set(endToEnd, "throughput_msgs_s", thr)
	o.set(endToEnd, "delivery_p50_ms", p50)
	o.set(endToEnd, "setup_s", slices.Min(setups))
	o.rangeNotes("sat.window_msgs_s", satWindows)
	o.rangeNotes("paced.window_p50_ms", p50s)
	o.rangeNotes("setups_s", setups)
	o.Notes["paced.rate_msgs_s"] = w.pacedRate
	o.tailNotes(all)
	o.Notes["paced.lag_end_ms"] = float64(paced.lagEnd) / 1e6
	o.Notes["generator.late_p50_ms"], o.Notes["generator.late_p99_ms"] = lateness(sys.t, paced)
	o.Notes["paced.sent_to_delivered_p50_ms"] = sentToDelivered(sys.t, paced)
	o.tally(sys, sat, paced)
	return o, nil
}
