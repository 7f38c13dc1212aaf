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
// SubIDs backing arrays), the per-shard parallel jobs and the batch assembly
// buffers are all reused.
type matchScratch struct {
	hits      []index.Hit
	live      []*core.Message // batch minus TTL-shed messages
	jobs      []shardJob      // per-shard parallel work, one entry per shard
	wg        sync.WaitGroup
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
	for i := range sc.jobs {
		sc.jobs[i].reset()
	}
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

// group files msg's hits in sh, sc.hits, into one delivery per subscriber,
// looking a subscriber's address up when its delivery starts. Grouping is
// per message: the caller clears perSub before the next one.
func (sc *matchScratch) group(sh *indexShard, msg *core.Message) {
	for _, h := range sc.hits {
		i, ok := sc.perSub[h.Subscriber]
		if !ok {
			i = sc.addDelivery(sh.addrs[h.ID], h.Subscriber, msg)
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
	if len(busy) > 0 && from != 0 {
		if addr, ok := m.gsp.AddrOf(from); ok {
			m.send(addr, wire.KindForwardAckBatch, &wire.ForwardAckBatchBody{Busy: busy})
		}
	}
}

// matchBatch matches a batch of forwarded messages against the dimension's
// set under one index lock acquisition, coalesces the resulting deliveries
// per destination address into DeliverBatch frames, and acknowledges the
// whole batch with one ForwardAckBatch.
func (m *Matcher) matchBatch(ds *dimSet, dim int, it forwardItem) {
	sc := getScratch()
	var tnow int64
	traced := false
	for _, msg := range it.msgs {
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
	for _, msg := range it.msgs {
		if msg.TTL > 0 {
			shedNow = m.cfg.Now()
			break
		}
	}
	sc.live = sc.live[:0]
	for _, msg := range it.msgs {
		if msg.TTL > 0 && shedNow > msg.PublishedAt+msg.TTL {
			m.Shed.Add(1)
			continue
		}
		sc.live = append(sc.live, msg)
	}
	scanned := 0
	if m.pool == nil || len(ds.shards) == 1 {
		// Single-shard inline path: one read-lock acquisition for the batch.
		sh := ds.shards[0]
		sh.mu.RLock()
		for _, msg := range sc.live {
			var n int
			sc.hits, n = sh.idx.MatchHits(msg, sc.hits[:0])
			scanned += n
			sc.group(sh, msg)
			clear(sc.perSub) // per-subscriber grouping is per message
		}
		sh.mu.RUnlock()
	} else {
		// Parallel path: fan the batch's stab+verify work across the shards
		// on the matcher's worker pool (the stage goroutine runs one shard's
		// job inline so it always contributes a core), then merge the
		// msg-ordered per-shard hit lists with a cursor sweep so delivery
		// coalescing sees the exact same (message, sub) stream as the inline
		// path. Jobs live in the pooled scratch: steady state allocates
		// nothing.
		for len(sc.jobs) < len(ds.shards) {
			sc.jobs = append(sc.jobs, shardJob{})
		}
		jobs := sc.jobs[:len(ds.shards)]
		sc.wg.Add(len(jobs))
		for i := range jobs {
			j := &jobs[i]
			j.shard = ds.shards[i]
			j.msgs = sc.live
			j.wg = &sc.wg
		}
		for i := 1; i < len(jobs); i++ {
			m.pool.submit(&jobs[i])
		}
		jobs[0].run()
		sc.wg.Wait()
		for i := range jobs {
			scanned += jobs[i].scanned
			jobs[i].cur = 0
		}
		for mi := range sc.live {
			for i := range jobs {
				j := &jobs[i]
				for j.cur < len(j.hits) && int(j.hits[j.cur].msg) == mi {
					h := &j.hits[j.cur]
					j.cur++
					di, ok := sc.perSub[h.hit.Subscriber]
					if !ok {
						di = sc.addDelivery(h.addr, h.hit.Subscriber, sc.live[mi])
					}
					sc.dels[di].body.SubIDs = append(sc.dels[di].body.SubIDs, h.hit.ID)
				}
			}
			clear(sc.perSub) // per-subscriber grouping is per message
		}
		for i := range jobs {
			jobs[i].reset()
		}
	}
	m.Scanned.Add(int64(scanned))
	m.Processed.Add(int64(len(it.msgs)))
	var matchDone int64
	if traced {
		matchDone = m.cfg.Now()
		for _, msg := range it.msgs {
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
		size := 4
		for i := c.head; i != -1; i = sc.dels[i].next {
			d := &sc.dels[i]
			n := int64(len(d.body.SubIDs))
			m.Matched.Add(n)
			if addr == "" {
				continue // nowhere to deliver (registered without an address)
			}
			m.Delivered.Add(n)
			// Stamp before the body is encoded so the frame carries the hop.
			if d.body.Msg.Trace != nil {
				d.body.Msg.Trace.Stamp(core.HopDeliver, matchDone)
			}
			esz := d.body.EncodedSize()
			if size+esz > maxDeliverBatchBytes && len(sc.batch.Deliveries) > 0 {
				m.send(addr, wire.KindDeliverBatch, &sc.batch)
				sc.batch.Deliveries = sc.batch.Deliveries[:0]
				size = 4
			}
			sc.batch.Deliveries = append(sc.batch.Deliveries, d.body)
			size += esz
		}
		if len(sc.batch.Deliveries) > 0 {
			m.send(addr, wire.KindDeliverBatch, &sc.batch)
		}
	}

	if traced {
		if tel := m.cfg.Telemetry; tel != nil {
			for _, msg := range it.msgs {
				if msg.Trace != nil {
					tel.Tracer.Record(msg.ID, msg.Trace)
				}
			}
		}
	}
	if it.from != 0 {
		if addr, ok := m.gsp.AddrOf(it.from); ok {
			sc.ackIDs = sc.ackIDs[:0]
			sc.ackTraces = sc.ackTraces[:0]
			for _, msg := range it.msgs {
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
