package dispatcher

import (
	"sync"

	"bluedove/internal/core"
	"bluedove/internal/seda"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// A destination's open batch is shipped inline by the publication that
// fills it to either bound.
const (
	maxBatchCount = 64
	maxBatchBytes = 256 << 10
)

// forwardBatcher coalesces forwarded publications per destination matcher
// into ForwardBatch frames by group commit. The publication that fills a
// batch to maxBatchCount messages or maxBatchBytes ships it inline; any
// other publication pushes its destination on the dirty queue, which the one
// flusher goroutine (flushLoop) drains as soon as it is free, one frame per
// destination.
type forwardBatcher struct {
	d          *Dispatcher
	sendCopies bool
	dirty      seda.Queue[*destBatch] // destinations dirtied since the flusher's last Take

	mu      sync.Mutex
	pending map[core.NodeID]*destBatch
	free    [][]wire.ForwardEntry // recycled entry slices (bounded)
}

// destBatch is the open batch for one destination matcher.
type destBatch struct {
	node    core.NodeID
	addr    string
	entries []wire.ForwardEntry
	bytes   int  // encoded-size estimate of entries
	dirty   bool // queued on forwardBatcher.dirty
}

// envPool recycles envelope headers on the copying-transport send path: a
// copying transport consumes the whole envelope inside Send.
var envPool = sync.Pool{New: func() any { return new(wire.Envelope) }}

func newForwardBatcher(d *Dispatcher) *forwardBatcher {
	return &forwardBatcher{
		d:          d,
		sendCopies: transport.SendCopies(d.cfg.Transport),
		pending:    make(map[core.NodeID]*destBatch),
	}
}

// add buffers one publication for node (listening at addr). It ships the
// batch inline when the publication fills it; otherwise the flusher's next
// pass does.
func (b *forwardBatcher) add(node core.NodeID, addr string, dim int, msg *core.Message) {
	e := wire.ForwardEntry{Dim: dim, Msg: msg}
	sz := e.EncodedSize()
	b.mu.Lock()
	db := b.pending[node]
	if db == nil {
		db = &destBatch{node: node}
		b.pending[node] = db
	}
	db.addr = addr // track the freshest known address
	if db.entries == nil {
		db.entries = b.takeEntriesLocked()
	}
	db.entries = append(db.entries, e)
	db.bytes += sz
	var full []wire.ForwardEntry
	mark := false
	if len(db.entries) >= maxBatchCount || db.bytes+4 >= maxBatchBytes {
		full = db.entries
		db.entries = nil
		db.bytes = 0
	} else if !db.dirty {
		db.dirty = true
		mark = true
	}
	b.mu.Unlock()
	if full != nil {
		b.send(node, addr, full)
	} else if mark {
		b.dirty.Push(db)
	}
}

// flushLoop is the flusher: each pass ships the open batch of every
// destination dirtied since the last one. Stop closes the queue, and the
// loop returns after a final pass, so buffered publications are not lost.
func (d *Dispatcher) flushLoop() {
	defer d.wg.Done()
	var dbs []*destBatch
	for {
		var ok bool
		if dbs, ok = d.batcher.dirty.Take(dbs, 1); !ok {
			return
		}
		d.batcher.flush(dbs)
	}
}

// flush is one flusher pass over the destinations in dbs.
func (b *forwardBatcher) flush(dbs []*destBatch) {
	for _, db := range dbs {
		b.mu.Lock()
		node, addr, entries := db.node, db.addr, db.entries
		db.entries, db.bytes, db.dirty = nil, 0, false
		b.mu.Unlock()
		if len(entries) > 0 { // else shipped inline since it was marked
			b.send(node, addr, entries)
		}
	}
}

// send encodes one ForwardBatch frame and ships it, recycling the encode
// buffer and envelope on copying transports and the entry slice always. A
// frame that cannot be sent hands its publications to sendFailed.
func (b *forwardBatcher) send(node core.NodeID, addr string, entries []wire.ForwardEntry) {
	body := wire.ForwardBatchBody{Entries: entries}
	var err error
	if b.sendCopies {
		buf := wire.GetBuf()
		buf.B = body.AppendTo(buf.B)
		env := envPool.Get().(*wire.Envelope)
		env.Kind, env.From, env.Body = wire.KindForwardBatch, b.d.cfg.ID, buf.B
		err = b.d.cfg.Transport.Send(addr, env)
		env.Body = nil
		envPool.Put(env)
		wire.PutBuf(buf)
	} else {
		err = b.d.cfg.Transport.Send(addr, &wire.Envelope{Kind: wire.KindForwardBatch, From: b.d.cfg.ID, Body: body.Encode()})
	}
	b.d.ForwardBatches.Add(1)
	if err != nil {
		b.d.sendFailed(node, entries)
	}
	b.mu.Lock()
	b.putEntriesLocked(entries)
	b.mu.Unlock()
}

// takeEntriesLocked reuses a recycled entry slice when one is available.
func (b *forwardBatcher) takeEntriesLocked() []wire.ForwardEntry {
	if n := len(b.free); n > 0 {
		es := b.free[n-1]
		b.free = b.free[:n-1]
		return es
	}
	return make([]wire.ForwardEntry, 0, maxBatchCount)
}

// putEntriesLocked clears message references and keeps the slice for reuse.
func (b *forwardBatcher) putEntriesLocked(entries []wire.ForwardEntry) {
	if len(b.free) >= 8 {
		return
	}
	clear(entries)
	b.free = append(b.free, entries[:0])
}
