package matcher

import (
	"fmt"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
	"bluedove/internal/workload"
)

// nullTransport discards sends; it reports SendCopies so the matching hot
// path exercises its pooled-buffer branch, as it would over TCP.
type nullTransport struct{}

func (nullTransport) Listen(addr string, h transport.Handler) (string, error) {
	return addr, nil
}
func (nullTransport) Send(string, *wire.Envelope) error { return nil }
func (nullTransport) Request(string, *wire.Envelope, time.Duration) (*wire.Envelope, error) {
	return nil, fmt.Errorf("null transport")
}
func (nullTransport) Close() error     { return nil }
func (nullTransport) SendCopies() bool { return true }

// benchMatcher builds an unstarted matcher over space sp.
func benchMatcher(b *testing.B, sp *core.Space) *Matcher {
	b.Helper()
	m, err := New(Config{
		ID: 1, Addr: "bench", Space: sp, Transport: nullTransport{},
	})
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// bandMatcher builds a matcher with subs stored subscriptions on dimension 0,
// each covering a distinct 10-wide band of subscriber space so a given
// message matches a handful of them.
func bandMatcher(b *testing.B, subs int) *Matcher {
	b.Helper()
	m := benchMatcher(b, testSpace)
	for i := 0; i < subs; i++ {
		lo := float64(i % 90)
		s := core.NewSubscription(core.SubscriberID(i+1),
			[]core.Range{{Low: lo, High: lo + 10}, {Low: 0, High: 100}})
		s.ID = core.SubscriptionID(i + 1)
		m.store(0, s, "sink")
	}
	return m
}

func benchMessages(n int) []*core.Message {
	msgs := make([]*core.Message, n)
	for i := range msgs {
		msgs[i] = core.NewMessage([]float64{float64(i % 100), 50}, []byte("payload"))
		msgs[i].ID = core.MessageID(i + 1)
	}
	return msgs
}

// BenchmarkMatchOne is the unbatched hot path: one stage item per message,
// matched by matchItem as a one-message batch, one DeliverBatch frame per
// destination address. subs=1000 fits in cache;
// paper40k holds the paper workload's 40,000 subscriptions over two
// subscribers on dimension 0 (about 150 matches per message), a set whose
// slab and subscriptions do not, so it shows what a match costs per hit.
func BenchmarkMatchOne(b *testing.B) {
	run := func(b *testing.B, m *Matcher, msgs []*core.Message) {
		ds := m.dims[0]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			m.matchItem(ds, forwardItem{msg: msgs[i%len(msgs)]})
		}
	}
	b.Run("subs=1000", func(b *testing.B) {
		run(b, bandMatcher(b, 1000), benchMessages(256))
	})
	b.Run("paper40k", func(b *testing.B) {
		sp := core.UniformSpace(4, 1000)
		gen := workload.New(workload.Default(sp))
		m := benchMatcher(b, sp)
		for i, s := range gen.Subscriptions(40000) {
			s.Subscriber = core.SubscriberID(i%2 + 1)
			m.store(0, s, fmt.Sprintf("sink%d", s.Subscriber))
		}
		run(b, m, gen.Messages(512))
	})
}

// BenchmarkMatchBatch64 is the batched hot path: 64 messages per stage item,
// one lock acquisition and coalesced DeliverBatch frames. Reported per
// message for direct comparison with BenchmarkMatchOne.
func BenchmarkMatchBatch64(b *testing.B) {
	m := bandMatcher(b, 1000)
	ds := m.dims[0]
	msgs := benchMessages(256)
	const batch = 64
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i += batch {
		lo := i % (len(msgs) - batch)
		m.matchBatch(ds, msgs[lo:lo+batch], 0)
	}
}
