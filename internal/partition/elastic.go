package partition

import (
	"errors"
	"fmt"
	"sort"

	"bluedove/internal/core"
)

// Handover describes one subscription transfer implied by a membership
// change: subscriptions stored in From's dimension-Dim set whose predicate
// overlaps Range must move to To's dimension-Dim set.
type Handover struct {
	Dim  int
	From core.NodeID
	To   core.NodeID
	// Range is the value range changing ownership on dimension Dim.
	Range core.Range
}

// String renders a compact description.
func (h Handover) String() string {
	return fmt.Sprintf("handover{dim%d %v->%v %v}", h.Dim, h.From, h.To, h.Range)
}

// Join produces a new table in which matcher newNode has joined by taking
// the upper half of victims[i]'s segment on each dimension i (paper Section
// III-C: "the dispatcher chooses a heavily loaded matcher, and for each
// segment on that matcher splits half of the segment to the new matcher";
// the elasticity experiment picks the most loaded matcher per dimension).
// It returns the table, the implied subscription handovers, and an error if
// newNode is already present or a victim is unknown.
func (t *Table) Join(newNode core.NodeID, victims []core.NodeID) (*Table, []Handover, error) {
	if t.HasMatcher(newNode) {
		return nil, nil, fmt.Errorf("partition: %v already in table", newNode)
	}
	if len(victims) != t.K() {
		return nil, nil, fmt.Errorf("partition: need %d victims, got %d", t.K(), len(victims))
	}
	c := t.clone()
	handovers := make([]Handover, 0, t.K())
	for i := range c.dims {
		dp := &c.dims[i]
		// A victim that owns several sub-segment ranges (post-split) gives up
		// half of its widest one.
		j := dp.widestSegment(victims[i])
		if j < 0 {
			return nil, nil, fmt.Errorf("partition: victim %v on dim %d: %w", victims[i], i, ErrUnknownNode)
		}
		lo, hi := dp.Boundaries[j], dp.Boundaries[j+1]
		mid := lo + (hi-lo)/2
		if !(lo < mid && mid < hi) {
			return nil, nil, fmt.Errorf("partition: dim %d segment %d too narrow to split", i, j)
		}
		// Victim keeps [lo, mid); new node takes [mid, hi).
		dp.Boundaries = append(dp.Boundaries, 0)
		copy(dp.Boundaries[j+2:], dp.Boundaries[j+1:])
		dp.Boundaries[j+1] = mid
		dp.Owners = append(dp.Owners, 0)
		copy(dp.Owners[j+2:], dp.Owners[j+1:])
		dp.Owners[j+1] = newNode
		handovers = append(handovers, Handover{
			Dim: i, From: victims[i], To: newNode,
			Range: core.Range{Low: mid, High: hi},
		})
	}
	c.version = t.version + 1
	return c, handovers, nil
}

// Leave produces a new table in which matcher node has left; on each
// dimension every segment it owns is absorbed by the adjacent (preceding,
// else following) segment's owner — the reverse of the joining process. It
// returns the table and the implied handovers (one per absorbed segment).
// Leaving the last matcher is an error.
func (t *Table) Leave(node core.NodeID) (*Table, []Handover, error) {
	if !t.HasMatcher(node) {
		return nil, nil, ErrUnknownNode
	}
	if t.N() <= 1 {
		return nil, nil, errors.New("partition: cannot remove the last matcher")
	}
	c := t.clone()
	handovers := make([]Handover, 0, t.K())
	for i := range c.dims {
		dp := &c.dims[i]
		for {
			j := dp.ownerSegment(node)
			if j < 0 {
				break
			}
			seg := dp.segRange(j)
			var to core.NodeID
			if j > 0 {
				to = dp.Owners[j-1] // left neighbor extends its upper boundary
				// remove boundary j and owner j
				dp.Boundaries = append(dp.Boundaries[:j], dp.Boundaries[j+1:]...)
				dp.Owners = append(dp.Owners[:j], dp.Owners[j+1:]...)
			} else {
				to = dp.Owners[1] // right neighbor extends its lower boundary
				dp.Boundaries = append(dp.Boundaries[:1], dp.Boundaries[2:]...)
				dp.Owners = dp.Owners[1:]
			}
			handovers = append(handovers, Handover{Dim: i, From: node, To: to, Range: seg})
		}
	}
	c.version = t.version + 1
	return c, handovers, nil
}

// Split cuts the dimension-dim segment containing cut at the cut point and
// re-homes the upper half [cut, high) onto matcher to, which must already be
// in the table — the hot-segment rebalancing operation driven by the
// elasticity controller when one segment is hot from a skewed subscription
// range. The cut must fall strictly inside a segment not already owned by
// to. Returns the new table and the implied handover.
func (t *Table) Split(dim int, cut float64, to core.NodeID) (*Table, Handover, error) {
	if dim < 0 || dim >= t.K() {
		return nil, Handover{}, fmt.Errorf("partition: split dim %d out of range", dim)
	}
	if !t.HasMatcher(to) {
		return nil, Handover{}, fmt.Errorf("partition: split target %v: %w", to, ErrUnknownNode)
	}
	c := t.clone()
	dp := &c.dims[dim]
	j := dp.segmentOf(cut)
	lo, hi := dp.Boundaries[j], dp.Boundaries[j+1]
	if !(lo < cut && cut < hi) {
		return nil, Handover{}, fmt.Errorf("partition: cut %g not strictly inside segment [%g,%g)", cut, lo, hi)
	}
	from := dp.Owners[j]
	if from == to {
		return nil, Handover{}, fmt.Errorf("partition: segment [%g,%g) already owned by %v", lo, hi, to)
	}
	dp.Boundaries = append(dp.Boundaries, 0)
	copy(dp.Boundaries[j+2:], dp.Boundaries[j+1:])
	dp.Boundaries[j+1] = cut
	dp.Owners = append(dp.Owners, 0)
	copy(dp.Owners[j+2:], dp.Owners[j+1:])
	dp.Owners[j+1] = to
	c.version = t.version + 1
	return c, Handover{Dim: dim, From: from, To: to, Range: core.Range{Low: cut, High: hi}}, nil
}

// SplitPoint picks the load-weighted cut for segment r of dimension dim from
// the subscriptions stored there that overlap it: the median predicate
// center, so a split at this point moves roughly half the stored load. It
// falls back to the midpoint when fewer than two centers fall strictly
// inside r. Order-independent, so split decisions replay identically.
func SplitPoint(subs []*core.Subscription, dim int, r core.Range) float64 {
	var centers []float64
	for _, s := range subs {
		p := s.Predicates[dim]
		c := p.Low + (p.High-p.Low)/2
		if c > r.Low && c < r.High {
			centers = append(centers, c)
		}
	}
	if len(centers) < 2 {
		return r.Low + (r.High-r.Low)/2
	}
	sort.Float64s(centers)
	return centers[len(centers)/2]
}
