package edge

import (
	"math/rand"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/wire"
)

// BenchmarkEdgeFanOut drives the edge's whole per-delivery path — re-match,
// encode, buffer, ready hand-off, flush — with 20 k local sessions, each
// subscribed to a square covering 1/1000 of a 2-d space, so a publication at
// a random point reaches about 20 of them. Each sink acks every 16th frame,
// as the repository benchmark's edge_fanout sessions do. One op is one
// publication; ns/delivery and allocs/delivery divide by the deliveries the
// sinks received.
func BenchmarkEdgeFanOut(b *testing.B) {
	const sessions = 20_000
	side := 100 * 0.0316 // sqrt(1/1000) of the extent per dimension
	r := newRig(b, nil)
	e := r.edge
	rng := rand.New(rand.NewSource(1))
	var frames atomic.Int64
	for i := 0; i < sessions; i++ {
		var token, seen atomic.Uint64
		w, err := e.AttachLocal(&wire.SessionHelloBody{Subscriber: core.SubscriberID(i + 1)}, func(*wire.Envelope) {
			frames.Add(1)
			if n := seen.Add(1); n%16 == 0 {
				e.Ack(token.Load(), n)
			}
		})
		if err != nil {
			b.Fatal(err)
		}
		token.Store(w.Token)
		lo0, lo1 := rng.Float64()*(100-side), rng.Float64()*(100-side)
		sub := core.NewSubscription(0, []core.Range{{Low: lo0, High: lo0 + side}, {Low: lo1, High: lo1 + side}})
		if _, err := e.Subscribe(w.Token, sub); err != nil {
			b.Fatal(err)
		}
	}
	msgs := make([]*core.Message, 1024)
	for i := range msgs {
		msgs[i] = core.NewMessage([]float64{rng.Float64() * 100, rng.Float64() * 100}, make([]byte, 64))
		msgs[i].ID = core.MessageID(i + 1)
	}
	drained := func() {
		for deadline := time.Now().Add(10 * time.Second); frames.Load() < e.FanOut(); time.Sleep(100 * time.Microsecond) {
			if time.Now().After(deadline) {
				b.Fatalf("%d of %d deliveries reached a sink", frames.Load(), e.FanOut())
			}
		}
	}
	for _, m := range msgs { // warm session buffers and the ready queue
		e.Deliver(m)
	}
	drained()

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	base := frames.Load()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Deliver(msgs[i%len(msgs)])
	}
	drained()
	b.StopTimer()
	runtime.ReadMemStats(&after)
	n := float64(max(frames.Load()-base, 1))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/delivery")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/delivery")
	b.ReportMetric(n/float64(b.N), "deliveries/op")
}
