// Package index provides per-dimension subscription indexes for matchers.
//
// A matcher stores the subscriptions it received along each dimension in a
// separate set Si(Mj) (paper Section III-A) and builds a separate index per
// set. Matching a message that was forwarded along dimension i is a stabbing
// query: find every subscription whose predicate on dimension i contains the
// message's value on i, then verify the remaining dimensions.
//
// Matchers and edges run the bucket index; the other two kinds serve the
// tests and the simulator:
//
//   - Bucket (the zero Kind): every dimension is cut into equal cells, and
//     each cell keeps a bitset over the stored subscriptions' slots whose
//     predicate on that dimension meets the cell. Match ANDs the k bitsets of
//     the message's cells, a superset of the answer that on the paper
//     workload is about 1.3 times its size, and verifies the survivors'
//     full cuboids, which the slab keeps inline, without touching a
//     subscription that does not match. The slab also keeps each slot's
//     (ID, Subscriber) pair, and MatchHits answers with those pairs, so a
//     matcher or edge groups its deliveries without touching a matched
//     subscription either. Its scanned count is the number of cuboids
//     verified and its results come in slot order. Stab and Overlapping use
//     the one dimension's bitsets.
//   - Scan: brute-force over all stored subscriptions. The reference
//     implementation used for correctness testing and as the cost model for
//     the full-replication baseline.
//   - IntervalTree: a centered interval tree rebuilt lazily after batches of
//     updates.
//
// The read methods (Dim, Len, Contains, Stab, Overlapping, All and Match) are
// safe for any number of concurrent readers; Add and Remove need exclusive
// access. A matcher shard holds its RWMutex's read lock to match and its
// write lock to store or remove.
package index

import (
	"fmt"

	"bluedove/internal/core"
)

// Index is a set of subscriptions searchable by stabbing queries on one
// fixed dimension.
type Index interface {
	// Dim returns the dimension this index searches on.
	Dim() int
	// Add inserts a subscription. Adding a subscription whose ID is already
	// present replaces the previous entry.
	Add(s *core.Subscription)
	// Remove deletes the subscription with the given ID, reporting whether
	// it was present.
	Remove(id core.SubscriptionID) bool
	// Len returns the number of stored subscriptions.
	Len() int
	// Contains reports whether a subscription with the given ID is stored.
	Contains(id core.SubscriptionID) bool
	// Stab appends to dst every stored subscription whose predicate on Dim
	// contains v and returns the extended slice together with the number of
	// stored subscriptions examined to answer the query (the matching-cost
	// measure used by the paper's subscription-amount policy discussion and
	// by the simulator's service-time model).
	Stab(v float64, dst []*core.Subscription) (res []*core.Subscription, scanned int)
	// Overlapping appends to dst every stored subscription whose predicate
	// on Dim overlaps r. Used for segment split/handover.
	Overlapping(r core.Range, dst []*core.Subscription) []*core.Subscription
	// All appends every stored subscription to dst.
	All(dst []*core.Subscription) []*core.Subscription
}

// Kind selects an Index implementation.
type Kind uint8

// Available index kinds. The zero value is the bucket index, so a config that
// leaves its kind unset gets it.
const (
	// KindBucket is the fixed-width bucket index.
	KindBucket Kind = iota
	// KindScan is the brute-force reference index.
	KindScan
	// KindIntervalTree is the centered interval tree.
	KindIntervalTree
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case KindScan:
		return "scan"
	case KindBucket:
		return "bucket"
	case KindIntervalTree:
		return "intervaltree"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// New constructs an index of the given kind for dimension dim of space sp
// with the default sizing (DefaultBuckets for KindBucket).
func New(k Kind, sp *core.Space, dim int) Index {
	return NewSized(k, sp, dim, 0)
}

// NewSized constructs an index of the given kind for dimension dim of space
// sp. buckets overrides the cells per dimension for KindBucket (<= 0 keeps
// DefaultBuckets); the other kinds ignore it.
func NewSized(k Kind, sp *core.Space, dim, buckets int) Index {
	switch k {
	case KindScan:
		return NewScan(dim)
	case KindBucket:
		if buckets <= 0 {
			buckets = DefaultBuckets
		}
		return NewBucket(sp, dim, buckets)
	case KindIntervalTree:
		return NewIntervalTree(dim)
	default:
		panic(fmt.Sprintf("index: unknown kind %d", k))
	}
}

// Match runs a full match for message m against idx: stab on the index's
// dimension, then verify every other dimension. It returns the matching
// subscriptions appended to dst and the number of stored subscriptions
// scanned. A *Bucket instead ANDs its per-cell bitsets across all k
// dimensions and verifies only the surviving cuboids: the same set of
// subscriptions, in slot order, with scanned counting the cuboids verified.
//
// cands is the stabbing candidate buffer; the (possibly grown) buffer is
// returned so callers on the hot path can retain its capacity across calls
// and keep steady-state matching allocation-free. Passing nil allocates a
// fresh buffer, which is fine off the hot path.
func Match(idx Index, m *core.Message, dst, cands []*core.Subscription) (matched, candsOut []*core.Subscription, scanned int) {
	if b, ok := idx.(*Bucket); ok {
		matched, scanned = b.match(m, dst)
		return matched, cands[:0], scanned
	}
	return StabVerify(idx, m, dst, cands)
}

// StabVerify is the paper's matcher on any index: stab on the index's
// dimension, then verify every other dimension with MatchesExcept. scanned is
// Stab's count, the per-set search cost the paper models. Match uses it for
// every kind but the bucket index; the simulator uses it for all of them.
// dst and cands are as for Match.
func StabVerify(idx Index, m *core.Message, dst, cands []*core.Subscription) (matched, candsOut []*core.Subscription, scanned int) {
	dim := idx.Dim()
	cands, scanned = idx.Stab(m.Attrs[dim], cands[:0])
	matched = dst
	for _, s := range cands {
		if s.MatchesExcept(m, dim) {
			matched = append(matched, s)
		}
	}
	return matched, cands, scanned
}
