package main

import (
	"fmt"
	"path/filepath"
	"runtime"
	"slices"
	"sync"
	"syscall"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/telemetry"
)

// perLayer are the metrics of single layers, reported by a traced run. They
// carry no regression bound: they exist to locate a change in an end-to-end
// metric, not to be gated themselves.
var perLayer = []metricDecl{
	{Name: "client.publish_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns", Unit: "ns", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_msg", Unit: "B", Better: "lower"},
	{Name: "transport.mesh_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.tcp_send_ns", Unit: "ns", Better: "lower"},
	{Name: "transport.frames_per_msg", Unit: "count", Better: "lower"},
	{Name: "partition.candidates_ns", Unit: "ns", Better: "lower"},
	{Name: "forward.rank_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatcher.ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatcher.journal_ns", Unit: "ns", Better: "lower"},
	{Name: "dispatcher.msgs_per_forward_frame", Unit: "count", Better: "higher"},
	{Name: "store.append_ns", Unit: "ns", Better: "lower"},
	{Name: "store.bytes_per_record", Unit: "B", Better: "lower"},
	{Name: "store.syncs_per_append", Unit: "count", Better: "lower"},
	{Name: "seda.queue_wait_ns", Unit: "ns", Better: "lower"},
	{Name: "matcher.service_ns", Unit: "ns", Better: "lower"},
	{Name: "matcher.scanned_per_msg", Unit: "count", Better: "lower"},
	{Name: "matcher.matched_per_msg", Unit: "count", Better: "lower"},
	{Name: "matcher.deliver_frames_per_msg", Unit: "count", Better: "lower"},
	{Name: "index.match_ns", Unit: "ns", Better: "lower"},
	{Name: "index.useful_ratio", Unit: "ratio", Better: "higher"},
	{Name: "index.add_ns", Unit: "ns", Better: "lower"},
	{Name: "index.remove_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.fanout_ns", Unit: "ns", Better: "lower"},
	{Name: "edge.fanout_ns_per_delivery", Unit: "ns", Better: "lower"},
	{Name: "edge.scanned_per_msg", Unit: "count", Better: "lower"},
	{Name: "edge.frames_per_delivery", Unit: "count", Better: "lower"},
	{Name: "edge.fanin_staged_max", Unit: "count", Better: "lower"},
	{Name: "hop.publish_ingest_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.ingest_forward_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.forward_dequeue_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.dequeue_match_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.match_deliver_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.deliver_receive_ns", Unit: "ns", Better: "lower"},
	{Name: "hop.unattributed_ns", Unit: "ns", Better: "lower"},
	{Name: "process.cpu_s_per_kmsg", Unit: "s", Better: "lower"},
	{Name: "process.allocs_per_msg", Unit: "count", Better: "lower"},
	{Name: "process.rss_peak_mb", Unit: "MB", Better: "lower"},
	{Name: "generator.late_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "trace_overhead_share", Unit: "ratio", Better: "lower"},
	{Name: "delivery_p99_ms", Unit: "ms", Better: "lower"},
}

// telemetries returns the telemetry bundle of every node of the cluster.
func (sys *system) telemetries() []*telemetry.Telemetry {
	var ids []core.NodeID
	ids = append(ids, sys.c.MatcherIDs()...)
	for _, d := range sys.c.Dispatchers() {
		ids = append(ids, d.ID())
	}
	for _, e := range sys.c.Edges() {
		ids = append(ids, e.ID())
	}
	var out []*telemetry.Telemetry
	for _, id := range ids {
		if tel := sys.c.Telemetry(id); tel != nil {
			out = append(out, tel)
		}
	}
	return out
}

// setSampling switches hop tracing on every node: rate 1 traces every
// publication, rate 0 none (the registries stay, the per-message trace
// context and its stamps go). The benchmark's own spans follow.
func (sys *system) setSampling(rate float64) {
	for _, tel := range sys.telemetries() {
		tel.Sampler.SetRate(rate)
	}
	sys.t.trace.on.Store(rate > 0)
}

// counters reads every counter and gauge of the given nodes once and sums
// them by name.
func counters(nodes []*telemetry.Telemetry) map[string]float64 {
	sum := map[string]float64{}
	for _, tel := range nodes {
		for _, s := range tel.Registry.Snapshot(tel.Now()) {
			sum[s.Name] += s.Value
		}
	}
	return sum
}

// frames counts the frames sent so far on behalf of publications. Over TCP
// the nodes' transports count what they write and the benchmark adds its own
// Publish frames. The mesh has no frame counter, so frames are counted where
// they are produced: a Publish per publication, a frame per forward (or per
// forward batch), a ForwardAck per processed forward, a Deliver per matcher
// delivery to an edge, and a frame per callback the benchmark received.
func (sys *system) frames() float64 {
	published := float64(sys.t.next.Load())
	c := counters(sys.telemetries())
	if sys.opts.TCP {
		return published + c["transport.frames_sent"]
	}
	forwards := c["dispatcher.forward_batches"]
	if forwards == 0 {
		forwards = c["dispatcher.forwarded"]
	}
	return published + forwards + c["matcher.processed"] + c["edge.fanout_in"] + float64(sys.t.callbacks.Load())
}

// procUsage is the process's cumulative CPU seconds and heap allocations.
func procUsage() (cpuS float64, allocs uint64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		cpuS = float64(ru.Utime.Nano()+ru.Stime.Nano()) / 1e9
	}
	return cpuS, mallocs()
}

func rssPeakMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// watchStaged polls the edge's staged fan-in depth and returns its maximum.
func (sys *system) watchStaged() (stop func() float64) {
	if !sys.w.edge {
		return func() float64 { return 0 }
	}
	edge := []*telemetry.Telemetry{sys.c.Telemetry(sys.c.Edges()[0].ID())}
	quit := make(chan struct{})
	var peak float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-quit:
				return
			case <-tick.C:
				peak = max(peak, counters(edge)["edge.fanin_staged"])
			}
		}
	}()
	return func() float64 { close(quit); wg.Wait(); return peak }
}

// runTraced produces the per-layer ledger of one workload from three views:
// benchmark-side spans around every call into a layer, the hop stamps the
// cluster (booted with Telemetry and a sampling rate of 1) writes into each
// delivered message, and the isolated layer drills. Closed-loop segments
// alternate between sampling off and on, so the cost of tracing is itself
// measured on one boot; the paced phase runs traced.
func runTraced(w *mix, seed int64, seconds int, outDir string) (*outcome, error) {
	in, err := w.generate(seed)
	if err != nil {
		return nil, err
	}
	o := &outcome{Workload: w.name, Seed: seed, Metrics: map[string]metric{}, Notes: map[string]float64{}}
	set := func(name string, v float64) { o.set(perLayer, name, v) }
	tr := newTraceRec()
	if err := traceCluster(w, in, seconds, outDir, o, tr); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}

	for i, name := range hopNames {
		slices.Sort(tr.hops[i])
		set("hop."+name+"_ns", float64(quantile(tr.hops[i], 0.50)))
		if name == "forward_dequeue" {
			// Forward-to-dequeue is the wait for the matcher's stage: the
			// frame's trip plus its time in the SEDA queue. Its tail is what
			// the queue adds to the delivery tail.
			set("seda.queue_wait_ns", float64(quantile(tr.hops[i], 0.99)))
		}
	}
	o.Notes["hop.samples"] = float64(len(tr.hops[0]))
	o.Notes["deliveries.traced"] = float64(tr.traced)
	o.Notes["deliveries.untraced"] = float64(tr.plain)
	o.Notes["spans.dropped"] = float64(tr.dropped)
	if err := tr.write(filepath.Join(outDir, "trace_"+w.name+".json")); err != nil {
		return nil, err
	}

	runtime.GC() // the cluster is gone; do not charge its garbage to the drills
	drills, err := runDrills(w, in, outDir)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	for name, v := range drills {
		set(name, v)
	}
	for _, d := range perLayer {
		if _, ok := o.Metrics[d.Name]; !ok {
			return nil, fmt.Errorf("%s: layer metric %s was not produced", w.name, d.Name)
		}
	}
	return o, nil
}

// traceCluster is the cluster part of a traced run: it boots the workload's
// cluster with tracing on, drives it, and records into o and tr what only a
// running cluster can tell. The cluster is gone when it returns.
func traceCluster(w *mix, in *inputs, seconds int, outDir string, o *outcome, tr *traceRec) error {
	sys, err := setUp(w, in, recordCapacity(seconds), outDir, tr)
	if err != nil {
		return err
	}
	defer sys.close()

	sys.runPhase("warmup", warmUp, 0)
	segment := max(time.Duration(seconds)*time.Second/8, time.Second)
	stopWatch := sys.watchStaged()
	stolen := o.stealNote()
	cpu0, allocs0 := procUsage()
	first := sys.t.next.Load()
	var plain, traced []float64
	var phases []phaseResult
	for i := 0; i < 2; i++ {
		sys.setSampling(0)
		p := sys.runPhase("sat.untraced", segment, 0)
		thr, _ := satThroughput(sys.t, p)
		plain = append(plain, thr)
		sys.setSampling(1)
		q := sys.runPhase("sat.traced", segment, 0)
		thr, _ = satThroughput(sys.t, q)
		traced = append(traced, thr)
		phases = append(phases, p, q)
	}
	// Hop intervals are reported for the paced phase, whose latency is the
	// end-to-end figure they have to explain; in the closed-loop segments
	// above they mostly measure the 128-deep windows queueing on each other.
	tr.resetHops()
	frames0, pubs0 := sys.frames(), sys.t.next.Load()
	paced := sys.runPhase("paced.traced", time.Duration(seconds)*time.Second-4*segment, w.pacedRate)
	frames1, pubs1 := sys.frames(), sys.t.next.Load()
	cpu1, allocs1 := procUsage()
	stolen()
	staged := stopWatch()
	phases = append(phases, paced)
	o.tally(sys, phases...)

	total := float64(pubs1 - first)
	set := func(name string, v float64) { o.set(perLayer, name, v) }
	var publishNs float64
	for seq := paced.from; seq < paced.to; seq++ {
		publishNs += float64(sys.t.recs[seq].ret - sys.t.recs[seq].sent)
	}
	set("client.publish_ns", publishNs/float64(max(paced.to-paced.from, 1)))
	set("transport.frames_per_msg", (frames1-frames0)/float64(max(pubs1-pubs0, 1)))
	set("edge.fanin_staged_max", staged)
	set("process.cpu_s_per_kmsg", (cpu1-cpu0)/(total/1000))
	set("process.allocs_per_msg", float64(allocs1-allocs0)/total)
	set("process.rss_peak_mb", rssPeakMB())
	late50, late99 := lateness(sys.t, paced)
	set("generator.late_p99_ms", late99)
	o.Notes["generator.late_p50_ms"] = late50
	o.Notes["paced.sent_to_delivered_p50_ms"] = sentToDelivered(sys.t, paced)
	// The delivery tail is reported here, ungated: its run-to-run spread on
	// the reference box is several times any bound the contract allows.
	_, _, all := pacedLatency(sys.t, paced, w.pacedRate)
	set("delivery_p99_ms", float64(quantile(all, 0.99))/1e6)
	o.tailNotes(all)
	set("trace_overhead_share", 1-median(traced)/median(plain))
	o.Notes["sat.untraced_msgs_s"] = median(plain)
	o.Notes["sat.traced_msgs_s"] = median(traced)
	o.Notes["paced.lag_end_ms"] = float64(paced.lagEnd) / 1e6
	return nil
}
