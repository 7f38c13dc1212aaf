package index

import (
	"math"

	"bluedove/internal/core"
)

// DefaultBuckets is the bucket count used by New for KindBucket.
const DefaultBuckets = 256

// wideThreshold is the fraction of the dimension extent above which an
// interval is stored in the overflow list rather than in a bucket. It bounds
// the backward window every stab scans (maxSpan) to a quarter of the
// buckets.
const wideThreshold = 0.25

// Bucket divides the dimension's value set into fixed-width buckets and
// stores each narrow interval once, in the bucket of its (clipped) Low.
// maxSpan records how many buckets past its first any stored narrow interval
// has reached, so a stab at v scans the buckets [b(v)-maxSpan, b(v)]: every
// interval containing v starts in one of them. Intervals wider than a quarter
// of the extent (or lying wholly outside it) live in an overflow list that
// every query scans.
//
// On a set of one predicate width the window is that width rounded up to
// whole buckets plus one bucket, less than a bucket more than the starts of
// the intervals that can contain v; for the paper's workload (range 250 of
// 1000, 64 buckets exactly) stabbing cost is about the answer size plus the
// overflow list. A set mixing widths pays the widest narrow interval's window
// for every entry: a stab examines every narrow entry starting within maxSpan
// buckets of v, at most those in a window of 25 % of the extent. maxSpan
// never shrinks.
//
// Buckets hold int32 slots into a slab (subscription, its predicate on the
// indexed dimension, and a free list), so the stab filter reads the predicate
// without dereferencing the subscription and the buckets hold no pointers.
// Add and Remove touch one bucket.
type Bucket struct {
	dim     int
	d       core.Dimension
	width   float64
	buckets [][]int32
	wide    []int32
	maxSpan int

	// The slab, indexed by slot. subs[i] is nil for a free slot; pos[i] is
	// slot i's position in its bucket (or the overflow list).
	subs   []*core.Subscription
	ranges []core.Range
	pos    []int32
	free   []int32
	slot   map[core.SubscriptionID]int32
}

var _ Index = (*Bucket)(nil)

// NewBucket returns an empty bucket index over dimension d (dimension index
// dim) with n buckets. n must be >= 1.
func NewBucket(d core.Dimension, dim, n int) *Bucket {
	if n < 1 {
		n = 1
	}
	return &Bucket{
		dim:     dim,
		d:       d,
		width:   d.Extent() / float64(n),
		buckets: make([][]int32, n),
		slot:    make(map[core.SubscriptionID]int32),
	}
}

// Dim returns the dimension this index searches on.
func (x *Bucket) Dim() int { return x.dim }

// Len returns the number of stored subscriptions.
func (x *Bucket) Len() int { return len(x.slot) }

// bucketOf maps a value (clamped to the dimension) to a bucket number.
func (x *Bucket) bucketOf(v float64) int {
	v = x.d.Clamp(v)
	b := int((v - x.d.Min) / x.width)
	if b >= len(x.buckets) {
		b = len(x.buckets) - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// span returns the inclusive bucket range covered by interval r clipped to
// the dimension, or wide when r belongs in the overflow list.
func (x *Bucket) span(r core.Range) (lo, hi int, wide bool) {
	clipped := r.Intersect(core.Range{Low: x.d.Min, High: x.d.Max})
	if clipped.Empty() {
		// Wholly outside the dimension: only out-of-dimension values can
		// stab it, so it goes where every query looks.
		return 0, 0, true
	}
	// The tolerance keeps intervals sitting exactly on the threshold out of
	// the overflow list when float arithmetic nudges their length up by an
	// ulp (lo + 0.25*extent - lo can exceed 0.25*extent): every such
	// interval would otherwise be scanned by every query.
	if clipped.Length() > wideThreshold*x.d.Extent()*(1+1e-9) {
		return 0, 0, true
	}
	lo = x.bucketOf(clipped.Low)
	// High is exclusive; nextafter below keeps an interval ending exactly on
	// a bucket boundary out of the next bucket.
	hi = x.bucketOf(math.Nextafter(clipped.High, clipped.Low))
	return lo, hi, false
}

// list returns the bucket (or the overflow list) that stores predicate r and
// how many buckets past that one r reaches.
func (x *Bucket) list(r core.Range) (l *[]int32, reach int) {
	lo, hi, wide := x.span(r)
	if wide {
		return &x.wide, 0
	}
	return &x.buckets[lo], hi - lo
}

// Add inserts or replaces a subscription.
func (x *Bucket) Add(s *core.Subscription) {
	x.Remove(s.ID)
	r := s.Predicates[x.dim]
	var i int32
	if n := len(x.free); n > 0 {
		i = x.free[n-1]
		x.free = x.free[:n-1]
		x.subs[i], x.ranges[i] = s, r
	} else {
		i = int32(len(x.subs))
		x.subs = append(x.subs, s)
		x.ranges = append(x.ranges, r)
		x.pos = append(x.pos, 0)
	}
	x.slot[s.ID] = i
	l, reach := x.list(r)
	x.maxSpan = max(x.maxSpan, reach)
	x.pos[i] = int32(len(*l))
	*l = append(*l, i)
}

// Remove deletes the subscription with the given ID.
func (x *Bucket) Remove(id core.SubscriptionID) bool {
	i, ok := x.slot[id]
	if !ok {
		return false
	}
	delete(x.slot, id)
	l, _ := x.list(x.ranges[i])
	last := int32(len(*l) - 1)
	moved := (*l)[last]
	(*l)[x.pos[i]] = moved
	x.pos[moved] = x.pos[i]
	*l = (*l)[:last]
	x.subs[i], x.ranges[i] = nil, core.Range{}
	x.free = append(x.free, i)
	return true
}

// appendContaining appends the subscriptions in slots whose predicate
// contains v.
func (x *Bucket) appendContaining(dst []*core.Subscription, slots []int32, v float64) []*core.Subscription {
	ranges := x.ranges
	for _, i := range slots {
		if ranges[i].Contains(v) {
			dst = append(dst, x.subs[i])
		}
	}
	return dst
}

// appendOverlapping appends the subscriptions in slots whose predicate
// overlaps r.
func (x *Bucket) appendOverlapping(dst []*core.Subscription, slots []int32, r core.Range) []*core.Subscription {
	for _, i := range slots {
		if x.ranges[i].Overlaps(r) {
			dst = append(dst, x.subs[i])
		}
	}
	return dst
}

// Stab returns the subscriptions containing v on Dim. Cost is the buckets
// [b(v)-maxSpan, b(v)] plus the overflow list; values outside the dimension
// clamp to its first or last bucket, where overhanging intervals start.
func (x *Bucket) Stab(v float64, dst []*core.Subscription) ([]*core.Subscription, int) {
	hi := x.bucketOf(v)
	scanned := len(x.wide)
	for _, b := range x.buckets[max(hi-x.maxSpan, 0) : hi+1] {
		scanned += len(b)
		dst = x.appendContaining(dst, b, v)
	}
	return x.appendContaining(dst, x.wide, v), scanned
}

// Overlapping returns subscriptions whose predicate on Dim overlaps r. Every
// entry is stored once, so the scan emits no duplicates.
func (x *Bucket) Overlapping(r core.Range, dst []*core.Subscription) []*core.Subscription {
	lo := max(x.bucketOf(r.Low)-x.maxSpan, 0)
	hi := x.bucketOf(math.Nextafter(r.High, math.Inf(-1)))
	for b := lo; b <= hi; b++ {
		dst = x.appendOverlapping(dst, x.buckets[b], r)
	}
	return x.appendOverlapping(dst, x.wide, r)
}

// All appends every stored subscription to dst in slot order, which depends
// only on the sequence of Adds and Removes.
func (x *Bucket) All(dst []*core.Subscription) []*core.Subscription {
	for _, s := range x.subs {
		if s != nil {
			dst = append(dst, s)
		}
	}
	return dst
}

// Contains reports whether a subscription with the given ID is stored.
func (x *Bucket) Contains(id core.SubscriptionID) bool {
	_, ok := x.slot[id]
	return ok
}
