package index

import "bluedove/internal/core"

// Covering wraps a base Index with subscription covering/aggregation
// (SIENA-style, per "Towards Scalable Subscription Aggregation and Real Time
// Event Matching"): when an incoming subscription's cuboid is contained by an
// already-indexed one, only the cover stays in the base index and the covered
// subscription rides in a cover table keyed by the cover's ID. Templated
// multi-tenant workloads — thousands of subscribers sharing a handful of
// predicate shapes — collapse to one indexed entry per shape, shrinking the
// stabbing structure (and its per-query scan cost) by the covering ratio.
//
// Correctness is preserved because covering here is containment of the FULL
// cuboid, not just the indexed dimension: a message stabbing a cover may
// still miss a covered subscription, so Stab re-checks each covered entry's
// predicate on the indexed dimension and Match's verify pass checks the
// rest, exactly as for directly indexed subscriptions.
//
// Removing a cover re-exposes its covered set: every rider is re-added
// through the normal Add path, so one of them becomes the new cover (or they
// attach to other existing covers). Overlapping and All enumerate covered
// subscriptions too, so segment split/handover and snapshotting see the full
// set. Like the wrapped indexes, Covering's read methods are safe for
// concurrent readers and Add and Remove need exclusive access.
type Covering struct {
	base Index
	// covered maps a cover's ID to the subscriptions riding on it; the cover
	// itself lives in base. Len(covered[id]) is the cover's refcount.
	covered map[core.SubscriptionID][]*core.Subscription
	// coverOf maps a covered subscription to its cover.
	coverOf map[core.SubscriptionID]core.SubscriptionID
	// subs holds every live subscription, cover or covered.
	subs map[core.SubscriptionID]*core.Subscription
	// probe is Add's candidate scratch.
	probe []*core.Subscription
}

var _ Index = (*Covering)(nil)

// NewCovering wraps base with covering/aggregation. The base index must be
// empty.
func NewCovering(base Index) *Covering {
	return &Covering{
		base:    base,
		covered: make(map[core.SubscriptionID][]*core.Subscription),
		coverOf: make(map[core.SubscriptionID]core.SubscriptionID),
		subs:    make(map[core.SubscriptionID]*core.Subscription),
	}
}

// Dim returns the dimension this index searches on.
func (x *Covering) Dim() int { return x.base.Dim() }

// Len returns the number of stored subscriptions, covered ones included.
func (x *Covering) Len() int { return len(x.subs) }

// IndexedLen returns the number of entries in the base stabbing index — the
// covers. Len()/IndexedLen() is the covering collapse ratio.
func (x *Covering) IndexedLen() int { return x.base.Len() }

// covers reports whether a's cuboid contains b's: every predicate of a
// contains the corresponding predicate of b (half-open intervals, so plain
// bound comparison).
func covers(a, b *core.Subscription) bool {
	if len(a.Predicates) != len(b.Predicates) {
		return false
	}
	for i, ra := range a.Predicates {
		rb := b.Predicates[i]
		if ra.Low > rb.Low || ra.High < rb.High {
			return false
		}
	}
	return true
}

// Add inserts a subscription, attaching it to an existing cover when one
// contains its cuboid, demoting existing covers its cuboid contains, and
// indexing it otherwise. Adding an ID already present replaces the previous
// entry.
func (x *Covering) Add(s *core.Subscription) {
	if _, ok := x.subs[s.ID]; ok {
		x.Remove(s.ID)
	}
	dim := x.base.Dim()
	// Any cover containing s's full cuboid contains, on the indexed
	// dimension, every point of s's predicate — so a stab at its midpoint
	// finds all candidates.
	r := s.Predicates[dim]
	x.probe, _ = x.base.Stab((r.Low+r.High)/2, x.probe[:0])
	for _, c := range x.probe {
		if covers(c, s) {
			x.subs[s.ID] = s
			x.coverOf[s.ID] = c.ID
			x.covered[c.ID] = append(x.covered[c.ID], s)
			return
		}
	}
	// s becomes a cover. Demote every existing cover whose cuboid s
	// contains: the demoted cover and its riders all attach under s.
	x.probe = x.base.Overlapping(r, x.probe[:0])
	for _, c := range x.probe {
		if !covers(s, c) {
			continue
		}
		x.base.Remove(c.ID)
		x.coverOf[c.ID] = s.ID
		x.covered[s.ID] = append(x.covered[s.ID], c)
		for _, rider := range x.covered[c.ID] {
			x.coverOf[rider.ID] = s.ID
			x.covered[s.ID] = append(x.covered[s.ID], rider)
		}
		delete(x.covered, c.ID)
	}
	x.subs[s.ID] = s
	x.base.Add(s)
}

// Remove deletes the subscription with the given ID. Removing a cover
// re-exposes its covered set by re-adding every rider through Add.
func (x *Covering) Remove(id core.SubscriptionID) bool {
	if _, ok := x.subs[id]; !ok {
		return false
	}
	delete(x.subs, id)
	if cid, ok := x.coverOf[id]; ok {
		delete(x.coverOf, id)
		riders := x.covered[cid]
		for i, rider := range riders {
			if rider.ID == id {
				last := len(riders) - 1
				riders[i] = riders[last]
				riders[last] = nil
				riders = riders[:last]
				break
			}
		}
		if len(riders) == 0 {
			delete(x.covered, cid)
		} else {
			x.covered[cid] = riders
		}
		return true
	}
	// A cover: drop it from the base index and re-expose its riders.
	x.base.Remove(id)
	riders := x.covered[id]
	delete(x.covered, id)
	for _, rider := range riders {
		delete(x.coverOf, rider.ID)
		delete(x.subs, rider.ID)
	}
	for _, rider := range riders {
		x.Add(rider)
	}
	return true
}

// Contains reports whether a subscription with the given ID is stored.
func (x *Covering) Contains(id core.SubscriptionID) bool {
	_, ok := x.subs[id]
	return ok
}

// Stab appends every stored subscription whose predicate on Dim contains v:
// the stabbed covers, plus each stabbed cover's riders re-checked on Dim
// (a rider's predicate is contained in its cover's, so every rider whose
// predicate contains v rides on a stabbed cover — no rider is missed).
func (x *Covering) Stab(v float64, dst []*core.Subscription) ([]*core.Subscription, int) {
	start := len(dst)
	dst, scanned := x.base.Stab(v, dst)
	for i, end := start, len(dst); i < end; i++ {
		for _, rider := range x.covered[dst[i].ID] {
			scanned++
			if rider.Predicates[x.base.Dim()].Contains(v) {
				dst = append(dst, rider)
			}
		}
	}
	return dst, scanned
}

// Overlapping appends every stored subscription whose predicate on Dim
// overlaps r — covers from the base index plus their riders re-checked
// against r (a rider overlapping r implies its cover overlaps r, so
// enumerating riders of overlapping covers is complete). Used for segment
// split/handover, which must move covered subscriptions too.
func (x *Covering) Overlapping(r core.Range, dst []*core.Subscription) []*core.Subscription {
	start := len(dst)
	dst = x.base.Overlapping(r, dst)
	for i, end := start, len(dst); i < end; i++ {
		for _, rider := range x.covered[dst[i].ID] {
			if rider.Predicates[x.base.Dim()].Overlaps(r) {
				dst = append(dst, rider)
			}
		}
	}
	return dst
}

// All appends every stored subscription to dst, covered ones included.
func (x *Covering) All(dst []*core.Subscription) []*core.Subscription {
	for _, s := range x.subs {
		dst = append(dst, s)
	}
	return dst
}
