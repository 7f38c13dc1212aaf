package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/index"
)

func TestHighestTailNeedsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{50, 0.90}, {150, 0.90}, {999, 0.90}, {1000, 0.99}, {5000, 0.99},
		{10_000, 0.999}, {99_999, 0.999}, {100_000, 0.9999},
	} {
		if got := highestTail(c.n); got != c.want {
			t.Errorf("highestTail(%d) = %v, want %v", c.n, got, c.want)
		}
		if beyond := float64(c.n) * (1 - highestTail(c.n)); c.n >= 100 && beyond < 10-1e-9 {
			t.Errorf("highestTail(%d) leaves only %.1f samples beyond it", c.n, beyond)
		}
	}
}

func TestQuantileNearestRank(t *testing.T) {
	s := make([]int64, 1000)
	for i := range s {
		s[i] = int64(i + 1)
	}
	for q, want := range map[float64]int64{0.5: 500, 0.99: 990, 0.999: 999, 1: 1000, 0: 1} {
		if got := quantile(s, q); got != want {
			t.Errorf("quantile(1..1000, %v) = %d, want %d", q, got, want)
		}
	}
	if quantile(nil, 0.5) != 0 {
		t.Error("quantile of nothing should be 0")
	}
}

// The expected figures are Python's: statistics.quantiles(v, n=4).
func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	for _, c := range []struct {
		v    []float64
		want float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, (8.25 - 2.75) / 5.5},
		{[]float64{12, 10}, (12.5 - 9.5) / 11},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6}, (5.75 - 1.25) / 3.5},
	} {
		if got := spread(c.v); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("spread(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestPhaseSplitCoversTheMeasuredSeconds(t *testing.T) {
	for _, s := range []int{2, 10, 15, 20, 60} {
		sat, paced := phaseSplit(s)
		if sat+paced != time.Duration(s)*time.Second || sat < time.Second || paced < time.Second {
			t.Errorf("phaseSplit(%d) = %v + %v", s, sat, paced)
		}
	}
}

// smallInputs is a workload small enough for unit tests: 2000 paper
// subscriptions over two receivers and the usual pool.
func smallInputs(t *testing.T, seed int64) *inputs {
	t.Helper()
	in := &inputs{space: core.UniformSpace(4, 1000), nRecv: 2}
	in.subs = paperSubs(in.space, seed, 2000, in.nRecv)
	if err := in.fillPool(rand.New(rand.NewSource(seed))); err != nil {
		t.Fatal(err)
	}
	return in
}

func TestOracleAgreesWithIndexMatch(t *testing.T) {
	in := smallInputs(t, 7)
	for _, kind := range []index.Kind{index.KindScan, index.KindBucket, index.KindIntervalTree} {
		idx := index.NewSized(kind, in.space, 1, 0)
		for i := range in.subs {
			s := core.NewSubscription(core.SubscriberID(in.subs[i].recv), in.subs[i].preds)
			s.ID = core.SubscriptionID(i)
			idx.Add(s)
		}
		for p := range in.pool {
			matched, _, _ := index.Match(idx, core.NewMessage(in.pool[p].attrs, nil), nil, nil)
			var got, want []int32
			for _, s := range matched {
				got = append(got, int32(s.ID))
			}
			for _, tg := range in.pool[p].targets {
				want = append(want, tg.subIdx...)
			}
			slices.Sort(got)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%v index, publication %d: index matched %v, oracle expects %v", kind, p, got, want)
			}
		}
	}
}

// assignIDs gives subscription i the ID i+100, as a system would on install.
func assignIDs(in *inputs) {
	for p := range in.pool {
		for k := range in.pool[p].targets {
			tg := &in.pool[p].targets[k]
			tg.ids = tg.ids[:0]
			for _, si := range tg.subIdx {
				tg.ids = append(tg.ids, core.SubscriptionID(si)+100)
			}
		}
	}
}

// echo is a system that delivers every publication correctly and at once.
func echo(t *tracker) publisher {
	return func(attrs []float64, payload []byte) error {
		seq := t.next.Load() - 1
		for _, tg := range t.pool[seq%uint64(len(t.pool))].targets {
			msg := core.NewMessage(attrs, slices.Clone(payload))
			t.deliver(tg.recv, msg, slices.Clone(tg.ids))
		}
		return nil
	}
}

func TestTrackerCountsWhatTheOracleRejects(t *testing.T) {
	in := smallInputs(t, 3)
	assignIDs(in)
	tr := newTracker(in.pool, 64, 1, nil)
	tr.checking.Store(true)
	payload := make([]byte, payloadSize)
	var sent []byte
	capture := func(_ []float64, p []byte) error { sent = slices.Clone(p); return nil }

	tr.publish(0, capture, payload, 0)
	pm := &in.pool[0]
	msg := func() *core.Message { return core.NewMessage(pm.attrs, slices.Clone(sent)) }
	first := pm.targets[0]

	tr.deliver(first.recv, msg(), append(slices.Clone(first.ids), 999_999))
	tr.deliver(first.recv, msg(), first.ids[:len(first.ids)-1])
	if got := tr.bad.wrong.Load(); got != 2 {
		t.Errorf("an extra and a missing subscription ID: wrong = %d, want 2", got)
	}
	tr.deliver(77, msg(), slices.Clone(first.ids))
	if got := tr.bad.spurious.Load(); got != 1 {
		t.Errorf("delivery to a receiver the oracle does not expect: spurious = %d, want 1", got)
	}
	tr.deliver(first.recv, msg(), slices.Clone(first.ids))
	if tr.bad.duplicate.Load() != 0 {
		t.Error("first correct delivery counted as duplicate")
	}
	tr.deliver(first.recv, msg(), slices.Clone(first.ids))
	if got := tr.bad.duplicate.Load(); got != 1 {
		t.Errorf("same delivery twice: duplicate = %d, want 1", got)
	}
	tr.deliver(first.recv, core.NewMessage(pm.attrs, []byte("short")), nil)
	if got := tr.bad.malformed.Load(); got != 1 {
		t.Errorf("foreign payload: malformed = %d, want 1", got)
	}
	wantDone := len(pm.targets) == 1
	if done := tr.recs[0].done.Load() != 0; done != wantDone {
		t.Errorf("done = %v with 1 of %d receivers reached", done, len(pm.targets))
	}

	tr.atLeastOnce = true
	tr.deliver(first.recv, msg(), slices.Clone(first.ids))
	if tr.bad.duplicate.Load() != 1 || tr.redelivered.Load() != 1 {
		t.Errorf("under at-least-once a repeat is a redelivery: duplicate %d redelivered %d",
			tr.bad.duplicate.Load(), tr.redelivered.Load())
	}
}

// A generator stalled for 40 ms must send what fell due meanwhile stamped
// with the original due times, so the stall shows as latency and lateness.
func TestOpenLoopTimesFromDueAndReportsLateness(t *testing.T) {
	in := smallInputs(t, 5)
	assignIDs(in)
	tr := newTracker(in.pool, 4096, 1, nil)
	tr.checking.Store(true)
	deliver := echo(tr)
	calls := 0
	pub := func(attrs []float64, payload []byte) error {
		if calls++; calls == 20 {
			time.Sleep(40 * time.Millisecond)
		}
		return deliver(attrs, payload)
	}
	const rate = 1000.0
	start := nowNs()
	lag := openLoop(tr, 0, pub, make([]byte, payloadSize), time.Now().Add(200*time.Millisecond), rate)
	n := tr.next.Load()
	if n < 190 || n > 200 {
		t.Fatalf("%d publications in 200 ms at %v/s", n, rate)
	}
	var worst int64
	for seq := uint64(0); seq < n; seq++ {
		r := &tr.recs[seq]
		if want := start + int64(float64(seq)*1e9/rate); r.due-want > int64(time.Millisecond) || want-r.due > int64(time.Millisecond) {
			t.Fatalf("publication %d due %d ns after start, want %d", seq, r.due-start, want-start)
		}
		if r.sent < r.due {
			t.Fatalf("publication %d sent %d ns before it was due", seq, r.due-r.sent)
		}
		if r.done.Load() < r.sent {
			t.Fatalf("publication %d not delivered", seq)
		}
		worst = max(worst, r.done.Load()-r.due)
	}
	if worst < int64(35*time.Millisecond) {
		t.Errorf("worst due-to-delivery %v: the 40 ms stall was not charged to the publications it delayed", time.Duration(worst))
	}
	p := phaseResult{from: 0, to: n}
	if _, late := lateness(tr, p); late < 20 {
		t.Errorf("generator.late_p99_ms = %.1f after a 40 ms stall", late)
	}
	if lag > 20*time.Millisecond {
		t.Errorf("generator finished %v behind schedule; it should have caught up", lag)
	}
	if tr.bad.total() != 0 {
		t.Errorf("echo system produced %d incorrect deliveries", tr.bad.total())
	}
}

type benchmarkJSON struct {
	Command    []string                     `json:"command"`
	Paths      []string                     `json:"paths"`
	RunSeconds int                          `json:"run_seconds"`
	Workloads  []struct{ Name, Why string } `json:"workloads"`
	EndToEnd   []metricDecl                 `json:"end_to_end"`
	PerLayer   []metricDecl                 `json:"per_layer"`
}

func TestDeclarationsMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(b.EndToEnd, endToEnd) {
		t.Errorf("end_to_end: BENCHMARK.json has %+v, the program declares %+v", b.EndToEnd, endToEnd)
	}
	if !slices.Equal(b.PerLayer, perLayer) {
		t.Errorf("per_layer: BENCHMARK.json has %+v, the program declares %+v", b.PerLayer, perLayer)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the program has %d", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name || b.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, b.Workloads[i], w.name, w.why)
		}
	}
	if b.RunSeconds < 1 || b.RunSeconds > 60 || len(b.Paths) != 1 || b.Paths[0] != "benchmark" {
		t.Errorf("run_seconds %d, paths %v", b.RunSeconds, b.Paths)
	}
}

func TestReportRoundTripsWithEveryDeclaredMetric(t *testing.T) {
	o := &outcome{Workload: "match_heavy", Seed: 9, Correct: true, Attempted: 10,
		Metrics: map[string]metric{}, Notes: map[string]float64{"paced.samples": 3}}
	for i, d := range endToEnd {
		o.set(endToEnd, d.Name, float64(i)+0.5)
	}
	for i, d := range perLayer {
		o.set(perLayer, d.Name, float64(i)+0.25)
	}
	rep := report{Header: newHeader(9, 15, true), EndToEnd: endToEnd, PerLayer: perLayer, Workloads: []*outcome{o}}
	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	var back report
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Claim != nil {
		t.Error("the report makes a claim")
	}
	if !strings.HasSuffix(string(data), `"claim":null}`) {
		t.Error(`the report does not end with "claim": null`)
	}
	got := back.Workloads[0]
	for _, d := range append(slices.Clone(endToEnd), perLayer...) {
		m, ok := got.Metrics[d.Name]
		if !ok || m.Unit != d.Unit || m.Value != o.Metrics[d.Name].Value {
			t.Errorf("metric %s: %+v after the round trip, ok=%v", d.Name, m, ok)
		}
	}
	if got.Seed != 9 || !got.Correct || got.Notes["paced.samples"] != 3 || back.Header.Seed != 9 {
		t.Errorf("round trip changed the report: %+v / %+v", back.Header, got)
	}
}
