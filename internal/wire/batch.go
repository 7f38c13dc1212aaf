package wire

import (
	"fmt"
	"sync"

	"bluedove/internal/core"
)

// Batch frame kinds (publication batching along the publish path): many
// publications, deliveries or acks travel in one frame, amortizing the
// per-frame header, syscall and handler costs that dominate the forwarding
// hop at high message rates.
const (
	// KindForwardBatch carries several publications dispatcher → matcher,
	// each marked with the dimension set to search.
	KindForwardBatch Kind = 68 + iota
	// KindDeliverBatch carries several matched publications to one delivery
	// endpoint (a subscriber or a queue-hosting dispatcher).
	KindDeliverBatch
	// KindForwardAckBatch acknowledges several matched publications
	// matcher → dispatcher in one frame.
	KindForwardAckBatch
)

// ForwardEntry is one publication inside a ForwardBatchBody.
type ForwardEntry struct {
	Dim int
	Msg *core.Message
}

// EncodedSize is the exact length the entry occupies in a ForwardBatch,
// used by batchers to stay under MaxFrame without encoding twice.
func (e ForwardEntry) EncodedSize() int {
	return 2 + messageSize(e.Msg)
}

// ForwardBatchBody carries a batch of publications one hop to a matcher
// (dispatcher → matcher). Entries may target different dimensions: the
// dispatcher coalesces per destination matcher, not per dimension.
type ForwardBatchBody struct {
	Entries []ForwardEntry
}

// AppendTo serializes the body into buf (which may be a pooled scratch
// buffer) and returns the extended slice.
func (b *ForwardBatchBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(uint32(len(b.Entries)))
	for _, e := range b.Entries {
		w.u16(uint16(e.Dim))
		encodeMessage(&w, e.Msg)
	}
	return w.buf
}

// EncodedSize is the exact length AppendTo writes for b.
func (b *ForwardBatchBody) EncodedSize() int {
	n := 4
	for _, e := range b.Entries {
		n += e.EncodedSize()
	}
	return n
}

// Encode serializes the body into one exact-size allocation.
func (b *ForwardBatchBody) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// DecodeForwardBatch parses a ForwardBatchBody.
func DecodeForwardBatch(data []byte) (*ForwardBatchBody, error) {
	r := reader{buf: data}
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible batch length %d", n)
	}
	b := &ForwardBatchBody{}
	if r.err == nil && n > 0 {
		b.Entries = make([]ForwardEntry, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			e := ForwardEntry{Dim: int(r.u16())}
			e.Msg = decodeMessage(&r)
			b.Entries = append(b.Entries, e)
		}
	}
	return b, r.finish()
}

// DeliverBatchBody carries several matched publications to one delivery
// endpoint. Deliveries for different subscribers may share a frame when the
// endpoint is a queue-hosting dispatcher.
type DeliverBatchBody struct {
	Deliveries []DeliverBody
}

// AppendTo serializes the body into buf and returns the extended slice.
func (b *DeliverBatchBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(uint32(len(b.Deliveries)))
	for i := range b.Deliveries {
		d := &b.Deliveries[i]
		w.u64(uint64(d.Subscriber))
		encodeMessage(&w, d.Msg)
		encodeIDs(&w, d.SubIDs)
	}
	return w.buf
}

// EncodedSize is the exact length AppendTo writes for b.
func (b *DeliverBatchBody) EncodedSize() int {
	n := 4
	for i := range b.Deliveries {
		n += b.Deliveries[i].EncodedSize()
	}
	return n
}

// Encode serializes the body into one exact-size allocation.
func (b *DeliverBatchBody) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// DecodeDeliverBatch parses a DeliverBatchBody.
func DecodeDeliverBatch(data []byte) (*DeliverBatchBody, error) {
	r := reader{buf: data}
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible batch length %d", n)
	}
	b := &DeliverBatchBody{}
	if r.err == nil && n > 0 {
		b.Deliveries = make([]DeliverBody, 0, n)
		for i := 0; i < n && r.err == nil; i++ {
			d := DeliverBody{Subscriber: core.SubscriberID(r.u64())}
			d.Msg = decodeMessage(&r)
			k := int(r.u32())
			if k > maxListLen {
				return nil, fmt.Errorf("wire: implausible id list length %d", k)
			}
			if r.err == nil && k > 0 {
				d.SubIDs = make([]core.SubscriptionID, 0, k)
				for j := 0; j < k; j++ {
					d.SubIDs = append(d.SubIDs, core.SubscriptionID(r.u64()))
				}
			}
			b.Deliveries = append(b.Deliveries, d)
		}
	}
	return b, r.finish()
}

// ForwardAckBatchBody acknowledges several forwarded messages at once.
// Traces carries back the stamped trace contexts of the (rare) sampled
// messages in the batch; untraced batches pay four zero bytes. Busy lists
// the batch items the matcher could NOT accept because the target stage's
// queue was full — per-item busy accounting so the dispatcher can re-route
// exactly the rejected publications (all-accepted batches pay four zero
// bytes).
type ForwardAckBatchBody struct {
	IDs    []core.MessageID
	Traces []AckTrace
	Busy   []BusyEntry
}

// AppendTo serializes the body into buf and returns the extended slice.
func (b *ForwardAckBatchBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u32(uint32(len(b.IDs)))
	for _, id := range b.IDs {
		w.u64(uint64(id))
	}
	w.u32(uint32(len(b.Traces)))
	for i := range b.Traces {
		w.u64(uint64(b.Traces[i].Msg))
		encodeTrace(&w, &b.Traces[i].Ctx)
	}
	w.u32(uint32(len(b.Busy)))
	for i := range b.Busy {
		w.u64(uint64(b.Busy[i].ID))
		w.u16(uint16(b.Busy[i].Dim))
		w.u32(uint32(b.Busy[i].QueueLen))
	}
	return w.buf
}

// busyEntrySize is a BusyEntry's encoded length: ID, dim, queue length.
const busyEntrySize = 8 + 2 + 4

// EncodedSize is the exact length AppendTo writes for b.
func (b *ForwardAckBatchBody) EncodedSize() int {
	return 4 + 8*len(b.IDs) + 4 + len(b.Traces)*(8+TraceOverhead) + 4 + busyEntrySize*len(b.Busy)
}

// Encode serializes the body into one exact-size allocation.
func (b *ForwardAckBatchBody) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// DecodeForwardAckBatch parses a ForwardAckBatchBody.
func DecodeForwardAckBatch(data []byte) (*ForwardAckBatchBody, error) {
	r := reader{buf: data}
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible ack batch %d", n)
	}
	b := &ForwardAckBatchBody{}
	if r.err == nil && n > 0 {
		b.IDs = make([]core.MessageID, 0, n)
		for i := 0; i < n; i++ {
			b.IDs = append(b.IDs, core.MessageID(r.u64()))
		}
	}
	t := int(r.u32())
	if t > maxListLen {
		return nil, fmt.Errorf("wire: implausible ack trace count %d", t)
	}
	if r.err == nil && t > 0 {
		b.Traces = make([]AckTrace, 0, t)
		for i := 0; i < t && r.err == nil; i++ {
			at := AckTrace{Msg: core.MessageID(r.u64())}
			if ctx := decodeTrace(&r); ctx != nil {
				at.Ctx = *ctx
			} else if r.err == nil {
				r.err = fmt.Errorf("wire: ack trace entry %d missing context", i)
			}
			b.Traces = append(b.Traces, at)
		}
	}
	u := int(r.u32())
	if u > maxListLen {
		return nil, fmt.Errorf("wire: implausible busy count %d", u)
	}
	if r.err == nil && u > 0 {
		b.Busy = make([]BusyEntry, 0, u)
		for i := 0; i < u && r.err == nil; i++ {
			b.Busy = append(b.Busy, BusyEntry{
				ID:       core.MessageID(r.u64()),
				Dim:      int(r.u16()),
				QueueLen: int(r.u32()),
			})
		}
	}
	return b, r.finish()
}

// Buf is a reusable encode scratch buffer. Hot-path senders encode bodies
// into pooled Bufs and return them after the transport has copied the bytes
// (see transport.Copying), eliminating the per-message body allocation.
type Buf struct {
	B []byte
}

var bufPool = sync.Pool{New: func() any { return &Buf{B: make([]byte, 0, 4096)} }}

// GetBuf fetches a scratch buffer with zero length from the pool.
func GetBuf() *Buf {
	b := bufPool.Get().(*Buf)
	b.B = b.B[:0]
	return b
}

// PutBuf returns a scratch buffer to the pool. The caller must not retain
// any slice of b.B afterwards.
func PutBuf(b *Buf) {
	if cap(b.B) > MaxFrame {
		return // don't pool pathological growth
	}
	bufPool.Put(b)
}
