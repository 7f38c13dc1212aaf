package index

import (
	"fmt"
	"math/rand"
	"testing"

	"bluedove/internal/core"
)

func benchIndex(b *testing.B, kind Kind, nsubs int, predLen float64) {
	sp := core.UniformSpace(4, 1000)
	idx := New(kind, sp, 0)
	rng := rand.New(rand.NewSource(1))
	for i := 1; i <= nsubs; i++ {
		preds := make([]core.Range, 4)
		for d := range preds {
			lo := rng.Float64() * (1000 - predLen)
			preds[d] = core.Range{Low: lo, High: lo + predLen}
		}
		s := core.NewSubscription(core.SubscriberID(i), preds)
		s.ID = core.SubscriptionID(i)
		idx.Add(s)
	}
	msgs := make([]*core.Message, 256)
	for i := range msgs {
		msgs[i] = core.NewMessage([]float64{rng.Float64() * 1000, rng.Float64() * 1000,
			rng.Float64() * 1000, rng.Float64() * 1000}, nil)
	}
	var dst, cands []*core.Subscription
	totScan := 0
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var scanned int
		dst, cands, scanned = Match(idx, msgs[i%len(msgs)], dst[:0], cands)
		totScan += scanned
	}
	b.StopTimer()
	if b.N > 0 {
		b.ReportMetric(float64(totScan)/float64(b.N), "scanned/op")
	}
}

func BenchmarkMatch(b *testing.B) {
	for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/subs=%d", kind, n), func(b *testing.B) {
				benchIndex(b, kind, n, 250)
			})
		}
	}
}

// paperSub returns a subscription with a paper-width (250 of 1000) predicate
// on dimension 0 and full ranges elsewhere.
func paperSub(rng *rand.Rand, id core.SubscriptionID) *core.Subscription {
	lo := rng.Float64() * 750
	s := core.NewSubscription(1, []core.Range{
		{Low: lo, High: lo + 250}, {Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}})
	s.ID = id
	return s
}

func BenchmarkAdd(b *testing.B) {
	sp := core.UniformSpace(4, 1000)
	for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
		b.Run(kind.String(), func(b *testing.B) {
			idx := New(kind, sp, 0)
			rng := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				idx.Add(paperSub(rng, core.SubscriptionID(i+1)))
			}
		})
	}
}

// BenchmarkRemove drains a 10k-entry index of paper-width subscriptions in
// random order, refilling it (untimed) whenever it empties.
func BenchmarkRemove(b *testing.B) {
	const n = 10000
	sp := core.UniformSpace(4, 1000)
	rng := rand.New(rand.NewSource(1))
	subs := make([]*core.Subscription, n)
	for i := range subs {
		subs[i] = paperSub(rng, core.SubscriptionID(i+1))
	}
	order := rng.Perm(n)
	for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
		b.Run(kind.String(), func(b *testing.B) {
			idx := New(kind, sp, 0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if i%n == 0 {
					b.StopTimer()
					for _, s := range subs {
						idx.Add(s)
					}
					b.StartTimer()
				}
				idx.Remove(subs[order[i%n]].ID)
			}
		})
	}
}
