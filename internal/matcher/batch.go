package matcher

import (
	"sync"

	"bluedove/internal/core"
	"bluedove/internal/index"
	"bluedove/internal/wire"
)

// maxDeliverBatchBytes caps one DeliverBatch frame's encoded size; a chain of
// deliveries to one address larger than this is split across frames (well
// under wire.MaxFrame so decode never rejects what we produce).
const maxDeliverBatchBytes = 1 << 20

// delEntry is one pending delivery being assembled: the destination address
// and the body, chained (via next) to the other deliveries for the same
// address so batch flushing needs no per-address slices.
type delEntry struct {
	addr string
	next int // index of the next delEntry with the same addr; -1 at the tail
	body wire.DeliverBody
}

// addrChain is the head/tail of one address's delEntry chain.
type addrChain struct{ head, tail int }

// matchScratch holds the per-call working state of the matching hot path.
// Pooled so steady-state matching allocates nothing: the MatchHits
// destination, the per-subscriber grouping map, the delivery list (with
// SubIDs backing arrays) and the batch assembly buffers are all reused.
type matchScratch struct {
	hits      []index.Hit
	live      []*core.Message           // batch minus TTL-shed messages
	perSub    map[core.SubscriberID]int // subscriber → index into dels, per message
	dels      []delEntry
	chains    map[string]addrChain
	batch     wire.DeliverBatchBody
	ackIDs    []core.MessageID
	ackTraces []wire.AckTrace
}

var scratchPool = sync.Pool{New: func() any {
	return &matchScratch{
		perSub: make(map[core.SubscriberID]int, 16),
		chains: make(map[string]addrChain, 8),
	}
}}

func getScratch() *matchScratch { return scratchPool.Get().(*matchScratch) }

// putScratch drops all object references (so pooling does not pin messages
// past their useful life) and returns sc to the pool.
func putScratch(sc *matchScratch) {
	sc.hits = sc.hits[:0]
	clear(sc.live)
	sc.live = sc.live[:0]
	clear(sc.perSub)
	for i := range sc.dels {
		d := &sc.dels[i]
		d.addr = ""
		d.body.Msg = nil
		d.body.SubIDs = d.body.SubIDs[:0]
	}
	sc.dels = sc.dels[:0]
	clear(sc.chains)
	clear(sc.batch.Deliveries)
	sc.batch.Deliveries = sc.batch.Deliveries[:0]
	sc.ackIDs = sc.ackIDs[:0]
	sc.ackTraces = sc.ackTraces[:0]
	scratchPool.Put(sc)
}

// addDelivery starts a new delivery for (addr, sub, msg), reusing a previous
// entry's SubIDs capacity when available, and records it in perSub.
func (sc *matchScratch) addDelivery(addr string, sub core.SubscriberID, msg *core.Message) int {
	i := len(sc.dels)
	if i < cap(sc.dels) {
		sc.dels = sc.dels[:i+1]
		d := &sc.dels[i]
		d.addr = addr
		d.body.Subscriber = sub
		d.body.Msg = msg
		d.body.SubIDs = d.body.SubIDs[:0]
	} else {
		sc.dels = append(sc.dels, delEntry{
			addr: addr,
			body: wire.DeliverBody{Subscriber: sub, Msg: msg},
		})
	}
	sc.perSub[sub] = i
	return i
}

// group files msg's hits in ds, sc.hits, into one delivery per subscriber,
// looking a subscriber's address up when its delivery starts. Grouping is
// per message: the caller clears perSub before the next one.
func (sc *matchScratch) group(ds *dimSet, msg *core.Message) {
	for _, h := range sc.hits {
		i, ok := sc.perSub[h.Subscriber]
		if !ok {
			i = sc.addDelivery(ds.addrs[h.ID], h.Subscriber, msg)
		}
		sc.dels[i].body.SubIDs = append(sc.dels[i].body.SubIDs, h.ID)
	}
}

// enqueueBatch fans a decoded ForwardBatch out to the dimension stages: one
// forwardItem per dimension carrying that dimension's share of the batch.
//
// The stage queue is bounded in items but weighted in messages — a batch
// occupies one channel slot however many messages it carries — so admission
// is bounded on the weighted backlog (EventLen vs QueueDepth). A batch that
// straddles the bound is split: the accepted prefix is enqueued, and every
// message of the rejected suffix is counted in Dropped and busy-NACKed back
// to the sender inside one ForwardAckBatch frame, instead of vanishing.
func (m *Matcher) enqueueBatch(b *wire.ForwardBatchBody, from core.NodeID) {
	perDim := make([][]*core.Message, len(m.dims))
	for _, e := range b.Entries {
		if e.Dim < 0 || e.Dim >= len(m.dims) || e.Msg == nil || len(e.Msg.Attrs) != len(m.dims) {
			continue
		}
		perDim[e.Dim] = append(perDim[e.Dim], e.Msg)
	}
	var busy []wire.BusyEntry
	for d, msgs := range perDim {
		if len(msgs) == 0 {
			continue
		}
		st := m.dims[d].stage
		accept, reject := msgs, []*core.Message(nil)
		if room := m.cfg.QueueDepth - st.EventLen(); room <= 0 {
			accept, reject = nil, msgs
		} else if room < len(msgs) {
			accept, reject = msgs[:room], msgs[room:]
		}
		if len(accept) > 0 && st.Enqueue(forwardItem{msgs: accept, from: from}) != nil {
			accept, reject = nil, msgs // channel full: nothing was admitted
		}
		if len(reject) > 0 {
			m.Dropped.Add(int64(len(reject)))
			m.BusyNacks.Add(int64(len(reject)))
			qlen := st.EventLen()
			for _, msg := range reject {
				busy = append(busy, wire.BusyEntry{ID: msg.ID, Dim: d, QueueLen: qlen})
			}
		}
	}
	if len(busy) > 0 {
		m.sendBusy(from, busy)
	}
}

// sendBusy tells the forwarding dispatcher which publications its full
// stages rejected, so it can re-route them at once instead of waiting for a
// retransmit.
func (m *Matcher) sendBusy(from core.NodeID, busy []wire.BusyEntry) {
	if from == 0 {
		return
	}
	if addr, ok := m.gsp.AddrOf(from); ok {
		m.send(addr, wire.KindForwardAckBatch, &wire.ForwardAckBatchBody{Busy: busy})
	}
}

// matchBatch matches a batch of forwarded messages against the dimension's
// set under one index lock acquisition, coalesces the resulting deliveries
// per destination address into DeliverBatch frames, and acknowledges the
// whole batch to the forwarding dispatcher, from, with one ForwardAckBatch.
func (m *Matcher) matchBatch(ds *dimSet, msgs []*core.Message, from core.NodeID) {
	sc := getScratch()
	var tnow int64
	traced := false
	for _, msg := range msgs {
		if msg.Trace != nil {
			if !traced {
				traced, tnow = true, m.cfg.Now()
			}
			msg.Trace.Stamp(core.HopDequeue, tnow)
		}
	}
	// TTL shedding happens at dequeue: a publication that expired while
	// queued is acked (processing is complete — deliberately shed) but
	// never matched or delivered.
	var shedNow int64
	for _, msg := range msgs {
		if msg.TTL > 0 {
			shedNow = m.cfg.Now()
			break
		}
	}
	sc.live = sc.live[:0]
	for _, msg := range msgs {
		if msg.TTL > 0 && shedNow > msg.PublishedAt+msg.TTL {
			m.Shed.Add(1)
			continue
		}
		sc.live = append(sc.live, msg)
	}
	scanned := 0
	ds.mu.RLock()
	for _, msg := range sc.live {
		var n int
		sc.hits, n = ds.idx.MatchHits(msg, sc.hits[:0])
		scanned += n
		sc.group(ds, msg)
		clear(sc.perSub) // per-subscriber grouping is per message
	}
	ds.mu.RUnlock()
	m.Scanned.Add(int64(scanned))
	m.Processed.Add(int64(len(msgs)))
	if traced {
		matchDone := m.cfg.Now()
		for _, msg := range msgs {
			if msg.Trace != nil {
				msg.Trace.Stamp(core.HopMatch, matchDone)
				m.matchLatency.Observe(matchDone - msg.Trace.Hops[core.HopDequeue])
			}
		}
	}

	// Chain deliveries by destination address.
	for i := range sc.dels {
		d := &sc.dels[i]
		d.next = -1
		if c, ok := sc.chains[d.addr]; ok {
			sc.dels[c.tail].next = i
			c.tail = i
			sc.chains[d.addr] = c
		} else {
			sc.chains[d.addr] = addrChain{head: i, tail: i}
		}
	}

	// Flush one DeliverBatch frame per address (split if oversized).
	for addr, c := range sc.chains {
		sc.batch.Deliveries = sc.batch.Deliveries[:0]
		size, frameTraced := 4, false
		for i := c.head; i != -1; i = sc.dels[i].next {
			d := &sc.dels[i]
			n := int64(len(d.body.SubIDs))
			m.Matched.Add(n)
			if addr == "" {
				continue // nowhere to deliver (registered without an address)
			}
			m.Delivered.Add(n)
			esz := d.body.EncodedSize()
			if size+esz > maxDeliverBatchBytes && len(sc.batch.Deliveries) > 0 {
				m.sendDeliverBatch(addr, &sc.batch, frameTraced)
				sc.batch.Deliveries = sc.batch.Deliveries[:0]
				size, frameTraced = 4, false
			}
			sc.batch.Deliveries = append(sc.batch.Deliveries, d.body)
			size += esz
			frameTraced = frameTraced || d.body.Msg.Trace != nil
		}
		if len(sc.batch.Deliveries) > 0 {
			m.sendDeliverBatch(addr, &sc.batch, frameTraced)
		}
	}

	if traced {
		if tel := m.cfg.Telemetry; tel != nil {
			for _, msg := range msgs {
				if msg.Trace != nil {
					tel.Tracer.Record(msg.ID, msg.Trace)
				}
			}
		}
	}
	if from != 0 {
		if addr, ok := m.gsp.AddrOf(from); ok {
			sc.ackIDs = sc.ackIDs[:0]
			sc.ackTraces = sc.ackTraces[:0]
			for _, msg := range msgs {
				sc.ackIDs = append(sc.ackIDs, msg.ID)
				if msg.Trace != nil {
					sc.ackTraces = append(sc.ackTraces, wire.AckTrace{Msg: msg.ID, Ctx: *msg.Trace})
				}
			}
			ack := wire.ForwardAckBatchBody{IDs: sc.ackIDs, Traces: sc.ackTraces}
			m.send(addr, wire.KindForwardAckBatch, &ack)
		}
	}
	putScratch(sc)
}

// sendDeliverBatch ships one DeliverBatch frame. When the frame carries a
// traced message, HopDeliver is stamped just before the frame is encoded, so
// the hop measures the flush and the frame carries the stamp.
func (m *Matcher) sendDeliverBatch(addr string, b *wire.DeliverBatchBody, traced bool) {
	if traced {
		now := m.cfg.Now()
		for i := range b.Deliveries {
			if t := b.Deliveries[i].Msg.Trace; t != nil {
				t.Stamp(core.HopDeliver, now)
			}
		}
	}
	m.send(addr, wire.KindDeliverBatch, b)
}
