package index

import (
	"math"
	"math/bits"

	"bluedove/internal/core"
)

// DefaultBuckets is the number of cells per dimension used by New for
// KindBucket. Past 64 cells a match gains little while Add and Remove flip
// proportionally more bits.
const DefaultBuckets = 64

// Bucket cuts every dimension of the space into n equal cells and keeps, for
// each dimension j and cell c, a bitset over slots: bit i of cells[j*n+c] is
// set when slot i's predicate on j meets c. A slot holds one subscription and,
// inline in the slab, a copy of its k predicates and its (ID, Subscriber)
// pair.
//
// A match ANDs the k rows of the message's cells and verifies all k
// predicates, branch-free, only on the slots that survive. MatchHits answers
// with the inline pairs, so a matcher groups its deliveries from the slab it
// has just verified, without a first read of each matched subscription.
// cellOf is monotone and a predicate owns every cell from its Low's to its
// High's, so a predicate containing a value always owns that value's cell:
// the AND is a superset of the answer and the verify makes it exact. On the
// paper workload (predicates a quarter of each dimension wide) the survivors
// are about 1.3 times the answer, where a one-dimension stab window holds a
// quarter of the whole set. Values and predicate bounds outside a dimension
// clamp to its edge cells, so overhanging, wholly outside and empty predicates
// need no special case.
//
// Match reports the number of cuboids it verified as scanned and returns its
// answer in slot order, which depends only on the sequence of Adds and
// Removes. Stab and Overlapping walk the rows of Dim alone and verify Dim's
// predicate; Stab's scanned is the size of the value's cell row.
//
// The cost is k·n bits per stored subscription (32 B at k = 4, n = 64) plus
// the rows' growth slack, beside 16·k bytes of inline predicates and the
// 16-byte pair. Add and Remove flip one bit per cell a predicate spans on
// each dimension: about 68 flips for a paper-width cuboid, 4·n for one that
// spans every dimension.
//
// Every stored subscription has exactly k predicates and every matched
// message exactly k attributes; the nodes drop frames that do not.
type Bucket struct {
	dim   int
	k     int
	n     int
	dims  []core.Dimension
	scale []float64 // n / extent, per dimension
	cells [][]uint64

	// The slab, indexed by slot. subs[i] is nil for a free slot, whose bits
	// are all clear; preds[i*k:][:k] is slot i's cuboid and refs[i] its
	// subscription's (ID, Subscriber).
	subs  []*core.Subscription
	preds []core.Range
	refs  []Hit
	free  []int32
	slot  map[core.SubscriptionID]int32
}

var _ Index = (*Bucket)(nil)

// Hit is one matched subscription as the bucket slab holds it: what a matcher
// needs to group a delivery by subscriber and list the subscription in it.
type Hit struct {
	ID         core.SubscriptionID
	Subscriber core.SubscriberID
}

// maxStackDims is the dimension count up to which Match keeps its rows in a
// stack array and so does not allocate.
const maxStackDims = 8

// andBlock is how many words of the k rows Match ANDs into a stack buffer
// before walking the surviving bits: each row is then one tight loop.
const andBlock = 64

// NewBucket returns an empty bucket index of space sp that stabs on dimension
// dim, with n cells per dimension. n must be >= 1.
func NewBucket(sp *core.Space, dim, n int) *Bucket {
	n = max(n, 1)
	k := sp.K()
	x := &Bucket{
		dim:   dim,
		k:     k,
		n:     n,
		dims:  sp.Dims(),
		scale: make([]float64, k),
		cells: make([][]uint64, k*n),
		slot:  make(map[core.SubscriptionID]int32),
	}
	for j, d := range x.dims {
		x.scale[j] = float64(n) / d.Extent()
	}
	return x
}

// Dim returns the dimension this index searches on.
func (x *Bucket) Dim() int { return x.dim }

// Len returns the number of stored subscriptions.
func (x *Bucket) Len() int { return len(x.slot) }

// cellOf maps a value on dimension j to its cell: the value is clamped into
// the dimension and the cell number into [0, n-1]. It is monotone in v; NaN
// lands in cell 0, where no predicate can contain it.
func (x *Bucket) cellOf(j int, v float64) int {
	c := int((x.dims[j].Clamp(v) - x.dims[j].Min) * x.scale[j])
	return min(max(c, 0), x.n-1)
}

// span returns the inclusive cell range predicate r occupies on dimension j.
// High is exclusive, so the last cell is that of the value just below it. An
// empty range still owns one cell.
func (x *Bucket) span(j int, r core.Range) (lo, hi int) {
	lo = x.cellOf(j, r.Low)
	hi = max(x.cellOf(j, math.Nextafter(r.High, math.Inf(-1))), lo)
	return lo, hi
}

// mark sets (on) or clears (!on) slot i's bit in every cell its cuboid spans.
func (x *Bucket) mark(i int32, on bool) {
	w, bit := i>>6, uint64(1)<<(i&63)
	set := uint64(0)
	if on {
		set = bit
	}
	for j, r := range x.preds[int(i)*x.k:][:x.k] {
		lo, hi := x.span(j, r)
		for _, row := range x.cells[j*x.n+lo : j*x.n+hi+1] {
			row[w] = row[w]&^bit | set
		}
	}
}

// Add inserts or replaces a subscription. A new slot past the end of the
// slab appends its predicates, and every 64th one appends a zero word to
// each row; append's doubling keeps both amortised.
func (x *Bucket) Add(s *core.Subscription) {
	x.Remove(s.ID)
	var i int32
	if n := len(x.free); n > 0 {
		i = x.free[n-1]
		x.free = x.free[:n-1]
		x.subs[i] = s
		copy(x.preds[int(i)*x.k:], s.Predicates[:x.k])
		x.refs[i] = Hit{ID: s.ID, Subscriber: s.Subscriber}
	} else {
		i = int32(len(x.subs))
		x.subs = append(x.subs, s)
		x.preds = append(x.preds, s.Predicates[:x.k]...)
		x.refs = append(x.refs, Hit{ID: s.ID, Subscriber: s.Subscriber})
		if i&63 == 0 {
			for c := range x.cells {
				x.cells[c] = append(x.cells[c], 0)
			}
		}
	}
	x.slot[s.ID] = i
	x.mark(i, true)
}

// Remove deletes the subscription with the given ID: its bits are cleared and
// its slot goes on the free list. No other slot moves.
func (x *Bucket) Remove(id core.SubscriptionID) bool {
	i, ok := x.slot[id]
	if !ok {
		return false
	}
	delete(x.slot, id)
	x.mark(i, false)
	x.subs[i] = nil
	x.free = append(x.free, i)
	return true
}

// b2i converts a comparison result to 0 or 1; the compiler emits a flag set,
// not a branch.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// Stab returns the subscriptions containing v on Dim: the slots of v's cell
// row on Dim whose predicate contains v. Values outside the dimension clamp
// to its first or last cell, where overhanging intervals also sit.
func (x *Bucket) Stab(v float64, dst []*core.Subscription) ([]*core.Subscription, int) {
	scanned := 0
	for w, word := range x.cells[x.dim*x.n+x.cellOf(x.dim, v)] {
		scanned += bits.OnesCount64(word)
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if x.preds[i*x.k+x.dim].Contains(v) {
				dst = append(dst, x.subs[i])
			}
		}
	}
	return dst, scanned
}

// match appends, in slot order, the subscriptions whose whole cuboid contains
// m, and returns the number of cuboids verified.
// Read-only: concurrent readers may share the index.
func (x *Bucket) match(m *core.Message, dst []*core.Subscription) ([]*core.Subscription, int) {
	return verify(x, m, x.subs, dst)
}

// MatchHits appends to dst, in slot order, the (ID, Subscriber) pair of every
// stored subscription whose whole cuboid contains m, and returns the number
// of cuboids verified: the answer of Match, read from the slab without
// touching a matched subscription. m must carry one attribute per dimension.
// Read-only: concurrent readers may share the index.
func (x *Bucket) MatchHits(m *core.Message, dst []Hit) ([]Hit, int) {
	return verify(x, m, x.refs, dst)
}

// verify appends vals[i] for every slot i whose whole cuboid contains m, in
// slot order, and returns the number of cuboids verified; vals is a
// slot-parallel slice of the slab. The k cell rows are ANDed andBlock words at
// a time; every surviving slot has all k ranges tested with integer ANDs and
// no early exit, so the only data-dependent branch is the one that appends a
// match. A NaN attribute fails both comparisons, as in core.Range.Contains.
func verify[T any](x *Bucket, m *core.Message, vals, dst []T) ([]T, int) {
	k := x.k
	attrs := m.Attrs[:k]
	var stack [maxStackDims][]uint64
	rows := stack[:0]
	if k > maxStackDims {
		rows = make([][]uint64, 0, k)
	}
	for j, a := range attrs {
		rows = append(rows, x.cells[j*x.n+x.cellOf(j, a)])
	}
	first, rest := rows[0], rows[1:]
	scanned := 0
	var acc [andBlock]uint64
	for base := 0; base < len(first); base += andBlock {
		and := acc[:min(andBlock, len(first)-base)]
		copy(and, first[base:])
		for _, row := range rest {
			row := row[base:][:len(and)]
			for w := range and {
				and[w] &= row[w]
			}
		}
		for w, word := range and {
			scanned += bits.OnesCount64(word)
			for ; word != 0; word &= word - 1 {
				i := (base+w)<<6 | bits.TrailingZeros64(word)
				c := x.preds[i*k:][:k]
				in := 1
				for d, a := range attrs {
					in &= b2i(a >= c[d].Low) & b2i(a < c[d].High)
				}
				if in != 0 {
					dst = append(dst, vals[i])
				}
			}
		}
	}
	return dst, scanned
}

// Overlapping returns, in slot order, the subscriptions whose predicate on Dim
// overlaps r: the slots in the union of the rows r spans on Dim whose
// predicate overlaps r.
func (x *Bucket) Overlapping(r core.Range, dst []*core.Subscription) []*core.Subscription {
	lo, hi := x.span(x.dim, r)
	rows := x.cells[x.dim*x.n+lo : x.dim*x.n+hi+1]
	for w := range rows[0] {
		var word uint64
		for _, row := range rows {
			word |= row[w]
		}
		for ; word != 0; word &= word - 1 {
			i := w<<6 | bits.TrailingZeros64(word)
			if x.preds[i*x.k+x.dim].Overlaps(r) {
				dst = append(dst, x.subs[i])
			}
		}
	}
	return dst
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
