package main

import (
	"fmt"
	"math/rand"
	"sort"

	"bluedove/internal/core"
	"bluedove/internal/workload"
)

// poolSize is the number of distinct publications a run cycles through.
// Large enough that no index or CPU cache holds the working set of one
// publication across repeats, small enough that the brute-force oracle for
// the whole pool is computed in well under a second.
const poolSize = 2048

// maxTargets bounds the receivers one publication may reach: the tracker
// keeps one "seen" bit per expected receiver in two machine words.
const maxTargets = 128

// subSpec is one static subscription: which receiver (direct client or edge
// session) holds it, and its predicates.
type subSpec struct {
	recv  int32
	preds []core.Range
}

// target is the oracle's expectation for one (publication, receiver) pair:
// the exact subscription set the receiver must be told about. subIdx indexes
// inputs.subs; ids is filled in (sorted) once the system has assigned
// subscription IDs.
type target struct {
	recv   int32
	subIdx []int32
	ids    []core.SubscriptionID
}

// poolMsg is one publication of the pool with its expected deliveries,
// sorted by receiver.
type poolMsg struct {
	attrs   []float64
	targets []target
}

// inputs is everything a workload feeds the system, generated from the seed
// alone. The program under test never sees the seed.
type inputs struct {
	space *core.Space
	nRecv int
	subs  []subSpec
	pool  []poolMsg
	// churn generates the subscriptions the churn goroutine adds and removes
	// (nil when the workload has none).
	churn *workload.Generator
}

// matches reports whether the point lies in the cuboid.
func matches(preds []core.Range, attrs []float64) bool {
	for i, r := range preds {
		if !r.Contains(attrs[i]) {
			return false
		}
	}
	return true
}

// expect is the brute-force oracle: every static subscription is tested
// against the point, and the hits are grouped by receiver.
func expect(subs []subSpec, attrs []float64) []target {
	var ts []target
	for i := range subs {
		if !matches(subs[i].preds, attrs) {
			continue
		}
		r := subs[i].recv
		k := sort.Search(len(ts), func(j int) bool { return ts[j].recv >= r })
		if k == len(ts) || ts[k].recv != r {
			ts = append(ts, target{})
			copy(ts[k+1:], ts[k:])
			ts[k] = target{recv: r}
		}
		ts[k].subIdx = append(ts[k].subIdx, int32(i))
	}
	return ts
}

// fillPool draws uniform publications until the pool is full, keeping only
// those that reach at least one and at most maxTargets receivers, so every
// publication has a delivery whose arrival can be observed.
func (in *inputs) fillPool(rng *rand.Rand) error {
	k := in.space.K()
	for tries := 0; len(in.pool) < poolSize; tries++ {
		if tries > 50*poolSize {
			return fmt.Errorf("inputs: only %d of %d draws reach 1..%d receivers", len(in.pool), tries, maxTargets)
		}
		attrs := make([]float64, k)
		for i := range attrs {
			d := in.space.Dim(i)
			attrs[i] = d.Min + rng.Float64()*d.Extent()
		}
		ts := expect(in.subs, attrs)
		if len(ts) == 0 || len(ts) > maxTargets {
			continue
		}
		in.pool = append(in.pool, poolMsg{attrs: attrs, targets: ts})
	}
	return nil
}

// paperSubs draws n subscriptions from the paper's distribution
// (workload.Default: cropped-normal centres, sigma 250, length 250), dealt
// round-robin to nRecv receivers.
func paperSubs(space *core.Space, seed int64, n, nRecv int) []subSpec {
	cfg := workload.Default(space)
	cfg.Seed = seed
	g := workload.New(cfg)
	subs := make([]subSpec, n)
	for i := range subs {
		subs[i] = subSpec{recv: int32(i % nRecv), preds: g.Subscription().Predicates}
	}
	return subs
}

// tilingSubs cuts dimension 0 into n equal cells, one subscription per cell
// and unconstrained elsewhere, so every point matches exactly one.
func tilingSubs(space *core.Space, n, nRecv int) []subSpec {
	subs := make([]subSpec, n)
	d0 := space.Dim(0)
	for i := range subs {
		preds := make([]core.Range, space.K())
		for d := range preds {
			preds[d] = core.Range{Low: space.Dim(d).Min, High: space.Dim(d).Max}
		}
		preds[0] = core.Range{
			Low:  d0.Min + d0.Extent()*float64(i)/float64(n),
			High: d0.Min + d0.Extent()*float64(i+1)/float64(n),
		}
		subs[i] = subSpec{recv: int32(i % nRecv), preds: preds}
	}
	return subs
}

// sessionSubs gives each of n edge sessions one subscription that is narrow
// (width w) on dimensions 0 and 1 and open on the rest: a publication then
// reaches about n*(w/extent)^2 sessions, while the edge's dimension-0 table
// has to examine about n*w/extent candidates to find them.
func sessionSubs(space *core.Space, rng *rand.Rand, n int, w float64) []subSpec {
	subs := make([]subSpec, n)
	for i := range subs {
		preds := make([]core.Range, space.K())
		for d := range preds {
			dim := space.Dim(d)
			if d < 2 {
				lo := dim.Min + rng.Float64()*(dim.Extent()-w)
				preds[d] = core.Range{Low: lo, High: lo + w}
			} else {
				preds[d] = core.Range{Low: dim.Min, High: dim.Max}
			}
		}
		subs[i] = subSpec{recv: int32(i), preds: preds}
	}
	return subs
}
