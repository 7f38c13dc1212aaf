package dispatcher

import (
	"sync"
	"testing"

	"bluedove/internal/core"
	"bluedove/internal/wire"
)

func mkDeliver(sub core.SubscriberID, msgID core.MessageID) wire.DeliverBody {
	m := core.NewMessage([]float64{1}, nil)
	m.ID = msgID
	return wire.DeliverBody{Subscriber: sub, Msg: m, SubIDs: []core.SubscriptionID{1}}
}

func TestPushPollFIFO(t *testing.T) {
	q := NewQueueStore(10)
	for i := 1; i <= 5; i++ {
		q.Push(7, mkDeliver(7, core.MessageID(i)))
	}
	if q.Len(7) != 5 {
		t.Fatalf("Len = %d", q.Len(7))
	}
	got := q.Poll(7, 3)
	if len(got) != 3 || got[0].Msg.ID != 1 || got[2].Msg.ID != 3 {
		t.Fatalf("first batch: %+v", got)
	}
	got = q.Poll(7, 10)
	if len(got) != 2 || got[0].Msg.ID != 4 {
		t.Fatalf("second batch: %+v", got)
	}
	if q.Poll(7, 10) != nil {
		t.Error("drained queue returned deliveries")
	}
	if q.Len(7) != 0 {
		t.Error("Len after drain")
	}
}

func TestPollDefaults(t *testing.T) {
	q := NewQueueStore(0) // default capacity
	for i := 1; i <= DefaultPollBatch+10; i++ {
		q.Push(1, mkDeliver(1, core.MessageID(i)))
	}
	got := q.Poll(1, 0)
	if len(got) != DefaultPollBatch {
		t.Fatalf("default batch = %d", len(got))
	}
}

func TestOverflowEvictsOldest(t *testing.T) {
	q := NewQueueStore(3)
	for i := 1; i <= 5; i++ {
		q.Push(2, mkDeliver(2, core.MessageID(i)))
	}
	if q.Evicted.Value() != 2 {
		t.Fatalf("Evicted = %d", q.Evicted.Value())
	}
	got := q.Poll(2, 10)
	if len(got) != 3 || got[0].Msg.ID != 3 || got[2].Msg.ID != 5 {
		t.Fatalf("kept: %+v", got)
	}
}

func TestDropAndSubscribers(t *testing.T) {
	q := NewQueueStore(10)
	q.Push(1, mkDeliver(1, 1))
	q.Push(2, mkDeliver(2, 2))
	subs := q.Subscribers()
	if len(subs) != 2 {
		t.Fatalf("Subscribers = %v", subs)
	}
	q.Drop(1)
	if q.Len(1) != 0 {
		t.Error("Drop did not clear")
	}
	if len(q.Subscribers()) != 1 {
		t.Error("Subscribers after Drop")
	}
}

func TestSeparateQueuesPerSubscriber(t *testing.T) {
	q := NewQueueStore(10)
	q.Push(1, mkDeliver(1, 10))
	q.Push(2, mkDeliver(2, 20))
	if got := q.Poll(1, 10); len(got) != 1 || got[0].Msg.ID != 10 {
		t.Fatalf("sub 1: %+v", got)
	}
	if got := q.Poll(2, 10); len(got) != 1 || got[0].Msg.ID != 20 {
		t.Fatalf("sub 2: %+v", got)
	}
}

func TestConcurrentAccess(t *testing.T) {
	q := NewQueueStore(1000)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(2)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				q.Push(core.SubscriberID(g), mkDeliver(core.SubscriberID(g), core.MessageID(i)))
			}
		}(g)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				q.Poll(core.SubscriberID(g), 5)
			}
		}(g)
	}
	wg.Wait()
}
