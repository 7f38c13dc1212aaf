package index

import (
	"testing"

	"bluedove/internal/core"
)

// FuzzBucketAddRemove drives a bucket index through an add/remove/re-add/
// stab/overlap/match sequence decoded from the fuzz input and checks every
// answer, Len and All against a brute-force scan oracle, and MatchHits
// against Match pair for pair. A re-add names a new subscriber, so a stale
// inline pair shows. The 16 cells per 256-wide dimension make widths from
// sub-cell to most of the extent, and intervals hanging over either end,
// reachable from a few bytes; the second dimension's bitsets and verify give
// the match something to reject.
func FuzzBucketAddRemove(f *testing.F) {
	f.Add([]byte{0x01, 0x40, 0x05, 0x10, 0x83, 0x50, 0x02, 0x00})
	f.Add([]byte{0xfd, 0x02, 0x41, 0xf8, 0x06, 0x01, 0x03, 0xff, 0x07, 0x80})
	// Add two, remove the first, add a third into its slot, re-add the
	// second under a new subscriber, then match where the two live ones sit.
	f.Add([]byte{0x04, 0xc8, 0x04, 0xc8, 0x02, 0x00, 0x04, 0xc8, 0x06, 0xc8, 0x03, 0xc8})
	f.Fuzz(func(t *testing.T, data []byte) {
		sp := core.UniformSpace(2, 256)
		ref, x := NewScan(0), NewBucket(sp, 0, 16)
		nextID := core.SubscriptionID(1)
		var live []core.SubscriptionID
		add := func(id core.SubscriptionID, sub core.SubscriberID, op byte, arg float64) {
			// Width from op's high bits, quadratic so both a fraction of a
			// bucket and more than a quarter of the extent occur; the low
			// end may sit below 0 or the high end past 256.
			w := float64(op>>3)*float64(op>>3)/4 + 0.25
			other := core.Range{Low: float64(op&7) * 32, High: float64(op&7)*32 + 96}
			s := core.NewSubscription(sub, []core.Range{{Low: arg - 8, High: arg - 8 + w}, other})
			s.ID = id
			ref.Add(s)
			x.Add(s)
		}
		for i := 0; i+1 < len(data); i += 2 {
			op, arg := data[i], float64(data[i+1])
			switch op % 4 {
			case 0, 1:
				live = append(live, nextID)
				add(nextID, core.SubscriberID(i+1), op, arg)
				nextID++
			case 2: // remove, or re-add with a new predicate
				if len(live) == 0 {
					continue
				}
				k := int(arg) % len(live)
				if op&4 != 0 {
					add(live[k], core.SubscriberID(i+1), op, arg)
					continue
				}
				id := live[k]
				live[k] = live[len(live)-1]
				live = live[:len(live)-1]
				if ref.Remove(id) != x.Remove(id) {
					t.Fatalf("Remove(%v) presence mismatch", id)
				}
			case 3:
				v := arg - 8 + float64(op>>2)/64
				want, _ := ref.Stab(v, nil)
				got, scanned := x.Stab(v, nil)
				if !sameIDs(ids(got), ids(want)) {
					t.Fatalf("Stab(%g) = %v, want %v", v, ids(got), ids(want))
				}
				if scanned < len(got) {
					t.Fatalf("scanned %d < |answer| %d", scanned, len(got))
				}
				r := core.Range{Low: v - 3, High: v + float64(op>>4) + 1}
				if !sameIDs(ids(x.Overlapping(r, nil)), ids(ref.Overlapping(r, nil))) {
					t.Fatalf("Overlapping(%v) mismatch", r)
				}
				m := core.NewMessage([]float64{v, arg}, nil)
				got, _, scanned = Match(x, m, nil, nil)
				want, _, _ = Match(ref, m, nil, nil)
				if !sameIDs(ids(got), ids(want)) {
					t.Fatalf("Match(%v) = %v, want %v", m.Attrs, ids(got), ids(want))
				}
				if scanned < len(got) {
					t.Fatalf("Match scanned %d < |answer| %d", scanned, len(got))
				}
				checkHits(t, x, m)
			}
			if x.Len() != ref.Len() {
				t.Fatalf("Len drift: bucket %d, oracle %d", x.Len(), ref.Len())
			}
		}
		if !sameIDs(ids(x.All(nil)), ids(ref.All(nil))) {
			t.Fatal("All mismatch after sequence")
		}
	})
}
