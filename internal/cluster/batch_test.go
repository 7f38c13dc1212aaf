package cluster

import (
	"testing"
	"time"

	"bluedove/internal/client"
	"bluedove/internal/core"
)

// TestBatchingEndToEnd drives a cluster with several concurrent publishers
// and direct and indirect subscribers, and checks that every matching
// publication is delivered and that the dispatchers' forward batchers
// coalesced. Run under -race this also exercises the batcher/flusher
// concurrency.
func TestBatchingEndToEnd(t *testing.T) {
	opts := fastOptions(4)
	opts.Persistent = true // batch acks must clear inflight state
	c, err := Start(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.WaitForTable(1, 5*time.Second); err != nil {
		t.Fatal(err)
	}

	// A direct subscriber covering the lower half of dim 0 and an indirect
	// (polled) subscriber covering the upper half.
	rec := newRecorder()
	directCl, err := c.NewClient(0, rec.onDeliver)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := directCl.Subscribe([]core.Range{
		{Low: 0, High: 499}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	indirectCl, err := c.NewClient(1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := indirectCl.Subscribe([]core.Range{
		{Low: 500, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000}, {Low: 0, High: 1000},
	}); err != nil {
		t.Fatal(err)
	}
	time.Sleep(300 * time.Millisecond) // let stores land

	// Concurrent publishers through both dispatchers; every publication
	// matches exactly one of the two subscribers.
	const pubs, perPub = 4, 50
	pubClients := make([]*client.Client, pubs)
	for p := range pubClients {
		cl, err := c.NewClient(p%2, nil)
		if err != nil {
			t.Fatal(err)
		}
		pubClients[p] = cl
	}
	errs := make(chan error, pubs)
	for p := 0; p < pubs; p++ {
		go func(p int) {
			cl := pubClients[p]
			for i := 0; i < perPub; i++ {
				x := float64((p*perPub + i) % 1000)
				if err := cl.Publish([]float64{x, 500, 500, 500}, []byte("m")); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(p)
	}
	for p := 0; p < pubs; p++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	total := pubs * perPub
	lower := 0 // publications with x < 500 go to the direct subscriber
	for p := 0; p < pubs; p++ {
		for i := 0; i < perPub; i++ {
			if (p*perPub+i)%1000 < 500 {
				lower++
			}
		}
	}
	waitFor(t, 10*time.Second, func() bool { return rec.totalSubIDs() == lower })

	// The indirect subscriber polls its dispatcher-hosted queue.
	polledIDs := make(map[core.MessageID]bool)
	waitFor(t, 10*time.Second, func() bool {
		ds, err := indirectCl.Poll(64)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range ds {
			polledIDs[d.Msg.ID] = true
		}
		return len(polledIDs) == total-lower
	})

	// Batching actually happened (coalesced frames, fewer than messages),
	// and persistence state drained via batch acks.
	var batches, forwarded int64
	for _, d := range c.Dispatchers() {
		batches += d.ForwardBatches.Value()
		forwarded += d.Forwarded.Value()
	}
	if forwarded != int64(total) {
		t.Errorf("forwarded=%d, want %d", forwarded, total)
	}
	if batches == 0 || batches >= forwarded {
		t.Errorf("ForwardBatches=%d of %d forwards; want coalescing", batches, forwarded)
	}
	waitFor(t, 10*time.Second, func() bool {
		for _, d := range c.Dispatchers() {
			if d.InflightLen() != 0 {
				return false
			}
		}
		return true
	})
}
