package index

import (
	"fmt"
	"math/rand"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/workload"
)

func benchIndex(b *testing.B, idx Index, nsubs int, predLen float64) {
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
	benchMatch(b, idx, msgs)
}

// benchMatch times Match over msgs, round robin, and reports the entries
// examined per match.
func benchMatch(b *testing.B, idx Index, msgs []*core.Message) {
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

// BenchmarkMatch runs full matches of uniform messages against paper-width
// (250 of 1000 on every dimension) subscriptions. The bucket/templated row
// stores 40,000 subscriptions copied from 2,000 paper-workload cuboids, the
// set where many subscriptions share one cuboid, and matches paper-workload
// messages against it.
func BenchmarkMatch(b *testing.B) {
	sp := core.UniformSpace(4, 1000)
	for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
		for _, n := range []int{1000, 10000} {
			b.Run(fmt.Sprintf("%s/subs=%d", kind, n), func(b *testing.B) {
				benchIndex(b, New(kind, sp, 0), n, 250)
			})
		}
	}
	b.Run("bucket/templated", func(b *testing.B) {
		gen := workload.New(workload.Default(sp))
		shapes := gen.Subscriptions(2000)
		idx := New(KindBucket, sp, 0)
		for i := 1; i <= 40000; i++ {
			s := core.NewSubscription(core.SubscriberID(i), shapes[i%len(shapes)].Predicates)
			s.ID = core.SubscriptionID(i)
			idx.Add(s)
		}
		benchMatch(b, idx, gen.Messages(512))
	})
}

// paperSub returns a subscription with a paper-width (250 of 1000) predicate
// on dimension 0 and full ranges elsewhere: for the bucket index, the most
// cells a paper-width subscription can span.
func paperSub(rng *rand.Rand, id core.SubscriptionID) *core.Subscription {
	lo := rng.Float64() * 750
	s := core.NewSubscription(1, []core.Range{
		{Low: lo, High: lo + 250}, {Low: 0, High: 1000},
		{Low: 0, High: 1000}, {Low: 0, High: 1000}})
	s.ID = id
	return s
}

// subSets are the subscription shapes BenchmarkAdd and BenchmarkRemove store:
// paperSub's, and the paper workload's (250 of 1000 on every dimension).
var subSets = []struct {
	name string
	gen  func(n int) []*core.Subscription
}{
	{"fullrange3", func(n int) []*core.Subscription {
		rng := rand.New(rand.NewSource(1))
		subs := make([]*core.Subscription, n)
		for i := range subs {
			subs[i] = paperSub(rng, core.SubscriptionID(i+1))
		}
		return subs
	}},
	{"workload", func(n int) []*core.Subscription {
		return workload.New(workload.Default(core.UniformSpace(4, 1000))).Subscriptions(n)
	}},
}

// BenchmarkAdd fills an index with distinct subscriptions, starting a fresh
// index (untimed) every 100k adds.
func BenchmarkAdd(b *testing.B) {
	const n = 100000
	sp := core.UniformSpace(4, 1000)
	for _, set := range subSets {
		subs := set.gen(n)
		for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
			b.Run(kind.String()+"/"+set.name, func(b *testing.B) {
				var idx Index
				for i := 0; i < b.N; i++ {
					if i%n == 0 {
						b.StopTimer()
						idx = New(kind, sp, 0)
						b.StartTimer()
					}
					idx.Add(subs[i%n])
				}
			})
		}
	}
}

// BenchmarkRemove drains a 10k-entry index in random order, refilling it
// (untimed) whenever it empties.
func BenchmarkRemove(b *testing.B) {
	const n = 10000
	sp := core.UniformSpace(4, 1000)
	order := rand.New(rand.NewSource(1)).Perm(n)
	for _, set := range subSets {
		subs := set.gen(n)
		for _, kind := range []Kind{KindScan, KindBucket, KindIntervalTree} {
			b.Run(kind.String()+"/"+set.name, func(b *testing.B) {
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
}
