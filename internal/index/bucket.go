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
// Each bucket (and the overflow list) holds int32 slots into a slab of
// subscriptions and, inline and in the same order, a copy of every entry's
// full predicate cuboid: k ranges per entry. The stab filter and the fused
// match (see Match) read predicates straight from the bucket without
// dereferencing a subscription, and the buckets hold no pointers for the
// garbage collector to trace. A match tests all k dimensions of every entry
// in the stab window and touches a subscription only when it matches. The
// copy costs 16·k bytes per stored subscription (64 B at k = 4) where a copy
// of the indexed range alone would cost 16. Add and Remove touch one bucket.
//
// Every stored subscription has exactly k predicates and every matched
// message exactly k attributes; the nodes drop frames that do not.
type Bucket struct {
	dim     int
	k       int
	d       core.Dimension
	width   float64
	buckets []bucketList
	wide    bucketList
	maxSpan int

	// The slab, indexed by slot. subs[i] is nil for a free slot; where[i] is
	// slot i's bucket number (-1 for the overflow list) and pos[i] its
	// position there.
	subs  []*core.Subscription
	where []int32
	pos   []int32
	free  []int32
	slot  map[core.SubscriptionID]int32
}

// bucketList is one bucket or the overflow list: slots, and the cuboids of
// those slots' subscriptions, k ranges per entry in slot order.
type bucketList struct {
	slots []int32
	preds []core.Range
}

var _ Index = (*Bucket)(nil)

// NewBucket returns an empty bucket index over dimension d (dimension index
// dim) of a k-dimensional space, with n buckets. n must be >= 1.
func NewBucket(d core.Dimension, dim, k, n int) *Bucket {
	if n < 1 {
		n = 1
	}
	return &Bucket{
		dim:     dim,
		k:       k,
		d:       d,
		width:   d.Extent() / float64(n),
		buckets: make([]bucketList, n),
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

// list returns bucket b, or the overflow list for b == -1.
func (x *Bucket) list(b int32) *bucketList {
	if b < 0 {
		return &x.wide
	}
	return &x.buckets[b]
}

// Add inserts or replaces a subscription.
func (x *Bucket) Add(s *core.Subscription) {
	x.Remove(s.ID)
	var i int32
	if n := len(x.free); n > 0 {
		i = x.free[n-1]
		x.free = x.free[:n-1]
		x.subs[i] = s
	} else {
		i = int32(len(x.subs))
		x.subs = append(x.subs, s)
		x.where = append(x.where, 0)
		x.pos = append(x.pos, 0)
	}
	x.slot[s.ID] = i
	b := int32(-1)
	if lo, hi, wide := x.span(s.Predicates[x.dim]); !wide {
		b = int32(lo)
		x.maxSpan = max(x.maxSpan, hi-lo)
	}
	l := x.list(b)
	x.where[i], x.pos[i] = b, int32(len(l.slots))
	l.slots = append(l.slots, i)
	l.preds = append(l.preds, s.Predicates[:x.k]...)
}

// Remove deletes the subscription with the given ID. The list's last entry,
// slot and cuboid, moves into the hole.
func (x *Bucket) Remove(id core.SubscriptionID) bool {
	i, ok := x.slot[id]
	if !ok {
		return false
	}
	delete(x.slot, id)
	l, k := x.list(x.where[i]), x.k
	p, last := int(x.pos[i]), len(l.slots)-1
	moved := l.slots[last]
	l.slots[p] = moved
	copy(l.preds[p*k:(p+1)*k], l.preds[last*k:])
	x.pos[moved] = int32(p)
	l.slots = l.slots[:last]
	l.preds = l.preds[:last*k]
	x.subs[i] = nil
	x.free = append(x.free, i)
	return true
}

// appendContaining appends the subscriptions in l whose predicate on Dim
// contains v.
func (x *Bucket) appendContaining(dst []*core.Subscription, l *bucketList, v float64) []*core.Subscription {
	for j, i := range l.slots {
		if l.preds[j*x.k+x.dim].Contains(v) {
			dst = append(dst, x.subs[i])
		}
	}
	return dst
}

// appendOverlapping appends the subscriptions in l whose predicate on Dim
// overlaps r.
func (x *Bucket) appendOverlapping(dst []*core.Subscription, l *bucketList, r core.Range) []*core.Subscription {
	for j, i := range l.slots {
		if l.preds[j*x.k+x.dim].Overlaps(r) {
			dst = append(dst, x.subs[i])
		}
	}
	return dst
}

// appendMatching appends the subscriptions in l whose whole cuboid contains
// attrs (len(attrs) == k). Every range of every entry is tested with integer
// ANDs and no early exit, so the loop's only data-dependent branch is the
// rarely taken one that appends a match; a NaN attribute fails both
// comparisons, as in core.Range.Contains.
func (x *Bucket) appendMatching(dst []*core.Subscription, l *bucketList, attrs []float64) []*core.Subscription {
	k := len(attrs)
	for j, i := range l.slots {
		c := l.preds[j*k:][:k]
		in := 1
		for d, a := range attrs {
			in &= b2i(a >= c[d].Low) & b2i(a < c[d].High)
		}
		if in != 0 {
			dst = append(dst, x.subs[i])
		}
	}
	return dst
}

// b2i converts a comparison result to 0 or 1; the compiler emits a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Stab returns the subscriptions containing v on Dim. Cost is the buckets
// [b(v)-maxSpan, b(v)] plus the overflow list; values outside the dimension
// clamp to its first or last bucket, where overhanging intervals start.
func (x *Bucket) Stab(v float64, dst []*core.Subscription) ([]*core.Subscription, int) {
	hi := x.bucketOf(v)
	scanned := len(x.wide.slots)
	for b := max(hi-x.maxSpan, 0); b <= hi; b++ {
		scanned += len(x.buckets[b].slots)
		dst = x.appendContaining(dst, &x.buckets[b], v)
	}
	return x.appendContaining(dst, &x.wide, v), scanned
}

// match appends the subscriptions whose whole cuboid contains m and returns
// the number of entries examined. It walks exactly Stab's window in Stab's
// order, so it returns what Stab followed by a verify of the other
// dimensions would, with the same scanned count. Read-only: concurrent
// readers may share the index.
func (x *Bucket) match(m *core.Message, dst []*core.Subscription) ([]*core.Subscription, int) {
	attrs := m.Attrs[:x.k]
	hi := x.bucketOf(attrs[x.dim])
	scanned := len(x.wide.slots)
	for b := max(hi-x.maxSpan, 0); b <= hi; b++ {
		scanned += len(x.buckets[b].slots)
		dst = x.appendMatching(dst, &x.buckets[b], attrs)
	}
	return x.appendMatching(dst, &x.wide, attrs), scanned
}

// Overlapping returns subscriptions whose predicate on Dim overlaps r. Every
// entry is stored once, so the scan emits no duplicates.
func (x *Bucket) Overlapping(r core.Range, dst []*core.Subscription) []*core.Subscription {
	lo := max(x.bucketOf(r.Low)-x.maxSpan, 0)
	hi := x.bucketOf(math.Nextafter(r.High, math.Inf(-1)))
	for b := lo; b <= hi; b++ {
		dst = x.appendOverlapping(dst, &x.buckets[b], r)
	}
	return x.appendOverlapping(dst, &x.wide, r)
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
