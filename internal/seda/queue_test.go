package seda

import (
	"slices"
	"sync"
	"testing"
	"time"
)

// Items pushed before Close are all handed out, in order; only then does
// Take report false, without blocking.
func TestQueueCloseDrainsThenFalse(t *testing.T) {
	var q Queue[int]
	q.Push(1, 2)
	q.Push(3)
	q.Close()
	got, ok := q.Take(nil, 1)
	if !ok || !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Take after Close = %v, %v; want [1 2 3], true", got, ok)
	}
	if got, ok = q.Take(got, 1); ok || len(got) != 0 {
		t.Fatalf("Take on a closed, empty queue = %v, %v; want [], false", got, ok)
	}
}

// Take(dst, k) hands out ceil(len/k) items from the front, and a taker that
// leaves items behind wakes another waiter: one Push wakes one waiter, so
// the second waiter below returns only through the first one's wake-up.
func TestQueueTakeFairShareWakesNext(t *testing.T) {
	var q Queue[int]
	q.Push(1, 2, 3, 4, 5, 6, 7, 8, 9, 10)
	got, _ := q.Take(nil, 4)
	if !slices.Equal(got, []int{1, 2, 3}) {
		t.Fatalf("Take(dst, 4) of 10 = %v, want [1 2 3]", got)
	}
	if got, _ = q.Take(got, 7); !slices.Equal(got, []int{4}) {
		t.Fatalf("Take(dst, 7) of 7 = %v, want [4]", got)
	}
	rest, _ := q.Take(nil, 1)
	if !slices.Equal(rest, []int{5, 6, 7, 8, 9, 10}) {
		t.Fatalf("Take(dst, 1) = %v, want the remaining six", rest)
	}

	sizes := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			got, _ := q.Take(nil, 2)
			sizes <- len(got)
		}()
	}
	// Give both waiters time to park, so only the Push's single wake-up and
	// the first taker's can release them. A waiter that has not parked yet
	// finds the items on its own, so a slow start cannot fail the test.
	time.Sleep(20 * time.Millisecond)
	q.Push(1, 2, 3, 4)
	var total int
	for i := 0; i < 2; i++ {
		select {
		case n := <-sizes:
			total += n
		case <-time.After(5 * time.Second):
			t.Fatal("a waiter was left asleep while items remained")
		}
	}
	if total != 3 { // ceil(4/2), then ceil(2/2)
		t.Errorf("two fair-share takes got %d items, want 3", total)
	}
	if got, _ = q.Take(got, 1); len(got) != 1 {
		t.Errorf("left %v in the queue, want one item", got)
	}
}

// Concurrent producers and fair-share consumers lose and duplicate nothing,
// and Close releases the consumers parked on the drained queue.
func TestQueueConcurrentProducersConsumers(t *testing.T) {
	const producers, consumers, per = 4, 3, 5000
	var q Queue[int]
	var cwg sync.WaitGroup
	seen := make([][]int, consumers)
	for c := 0; c < consumers; c++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			var batch []int
			for {
				var ok bool
				if batch, ok = q.Take(batch, consumers); !ok {
					return
				}
				seen[c] = append(seen[c], batch...)
			}
		}()
	}
	var pwg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pwg.Add(1)
		go func() {
			defer pwg.Done()
			for i := 0; i < per; i += 2 { // pairs exercise the variadic Push
				q.Push(p*per+i, p*per+i+1)
			}
		}()
	}
	pwg.Wait()
	q.Close()
	cwg.Wait()
	count := make([]int, producers*per)
	for _, vs := range seen {
		for _, v := range vs {
			count[v]++
		}
	}
	for v, n := range count {
		if n != 1 {
			t.Fatalf("item %d handed out %d times, want once", v, n)
		}
	}
}

// A steady Push + Take pass reusing its dst allocates nothing: a full take
// trades dst with the queue's backing array, and a fair-share take copies
// into dst's capacity.
func TestQueuePassAllocatesNothing(t *testing.T) {
	for _, share := range []int{1, 2} {
		var q Queue[*int]
		x := new(int)
		var dst []*int
		pass := func() {
			q.Push(x, x)
			dst, _ = q.Take(dst, share)
		}
		for i := 0; i < 4; i++ {
			pass()
		}
		if allocs := testing.AllocsPerRun(1000, pass); allocs != 0 {
			t.Errorf("share %d: Push + Take pass %v allocs, want 0", share, allocs)
		}
	}
}
