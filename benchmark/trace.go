package main

import (
	"encoding/json"
	"os"
	"sync"
	"sync/atomic"

	"bluedove/internal/core"
)

// maxSpans bounds the spans a traced run keeps (and writes); once full,
// later spans are counted in Dropped but their timings still feed the
// metrics, which are computed from the per-publication records.
const maxSpans = 100_000

// span is one call the benchmark made into a layer (or one callback a layer
// made into the benchmark). Seq, the publication sequence number, is the
// identifier spans of one publication share; Parent names the enclosing
// span (the run phase for generator calls, the publication's client.publish
// span for delivery callbacks).
type span struct {
	Name   string `json:"name"`
	Seq    uint64 `json:"seq"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent string `json:"parent"`
}

// hop names one interval between consecutive trace stamps on a publication's
// path; publish_ingest starts at the benchmark's own call into
// Client.Publish and deliver_receive ends at the benchmark's callback.
var hopNames = []string{
	"publish_ingest", "ingest_forward", "forward_dequeue",
	"dequeue_match", "match_deliver", "deliver_receive", "unattributed",
}

// traceRec is the in-memory trace of one traced run: benchmark-side spans
// and, per delivery, the hop intervals read off the message's TraceCtx.
type traceRec struct {
	// on gates recording, so closed-loop segments can run with and without
	// the benchmark's own tracing cost.
	on atomic.Bool

	mu      sync.Mutex
	phase   string
	spans   []span
	dropped int64
	hops    [][]int64 // hops[i] holds samples of hopNames[i], ns
	traced  int64     // deliveries that carried a TraceCtx
	plain   int64     // deliveries that did not
}

func newTraceRec() *traceRec {
	t := &traceRec{hops: make([][]int64, len(hopNames))}
	t.on.Store(true)
	return t
}

// beginPhase names the phase that generator-side spans recorded from now on
// are parented to.
func (t *traceRec) beginPhase(name string) {
	t.mu.Lock()
	t.phase = name
	t.mu.Unlock()
}

// endPhase records the finished phase as a span of its own.
func (t *traceRec) endPhase(name string, start, end int64) {
	t.add(span{Name: name, Start: start, End: end, Parent: "run"})
	t.beginPhase("idle")
}

func (t *traceRec) add(s span) {
	if !t.on.Load() {
		return
	}
	t.mu.Lock()
	if len(t.spans) < maxSpans {
		t.spans = append(t.spans, s)
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// span records one generator-side call, parented to the current phase.
func (t *traceRec) span(name string, seq uint64, start, end int64) {
	t.mu.Lock()
	parent := t.phase
	t.mu.Unlock()
	t.add(span{Name: name, Seq: seq, Start: start, End: end, Parent: parent})
}

// delivery records one verified callback: its span, and the hop intervals
// of the delivered message when the cluster traced it. The residual is what
// the stamps leave unexplained of due→receive: generator lateness plus any
// hop that was not stamped.
func (t *traceRec) delivery(seq uint64, due, sent, recv int64, tc *core.TraceCtx, last bool) {
	if !t.on.Load() {
		return
	}
	name := "deliver.callback"
	if last {
		name = "deliver.callback.last"
	}
	t.add(span{Name: name, Seq: seq, Start: recv, End: nowNs(), Parent: "client.publish"})
	if tc == nil {
		t.mu.Lock()
		t.plain++
		t.mu.Unlock()
		return
	}
	h := tc.Hops
	stamps := []int64{sent, h[core.HopIngest], h[core.HopForward], h[core.HopDequeue],
		h[core.HopMatch], h[core.HopDeliver], recv}
	total := recv - due
	t.mu.Lock()
	defer t.mu.Unlock()
	t.traced++
	if len(t.hops[0]) >= maxSpans {
		return
	}
	for i := 0; i+1 < len(stamps); i++ {
		if stamps[i] == 0 || stamps[i+1] == 0 {
			continue
		}
		d := stamps[i+1] - stamps[i]
		t.hops[i] = append(t.hops[i], d)
		total -= d
	}
	t.hops[len(hopNames)-1] = append(t.hops[len(hopNames)-1], total)
}

// resetHops discards the hop samples gathered so far, so the figures
// reported are those of the phase that follows.
func (t *traceRec) resetHops() {
	t.mu.Lock()
	for i := range t.hops {
		t.hops[i] = t.hops[i][:0]
	}
	t.mu.Unlock()
}

// write dumps the spans as one JSON document.
func (t *traceRec) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	doc := struct {
		Spans   []span `json:"spans"`
		Dropped int64  `json:"spans_dropped"`
	}{t.spans, t.dropped}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
