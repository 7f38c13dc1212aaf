package wire

import (
	"fmt"

	"bluedove/internal/core"
	"bluedove/internal/forward"
)

// Kind discriminates protocol messages.
type Kind uint8

// Protocol message kinds.
const (
	// KindSubscribe carries a client subscription to a dispatcher.
	KindSubscribe Kind = iota + 1
	// KindSubscribeAck returns the assigned subscription ID to the client.
	KindSubscribeAck
	// KindStore installs a subscription copy on a matcher along a dimension.
	KindStore
	// KindUnsubscribe removes a subscription.
	KindUnsubscribe
	// KindPublish carries a client publication to a dispatcher.
	KindPublish
	// KindForward carries one publication to a matcher, marked with the
	// dimension set to search. Dispatchers forward in KindForwardBatch
	// frames; matchers still accept this kind, which the benchmark's matcher
	// drill sends.
	KindForward
	// Kind 7 is retired (matchers deliver in KindDeliverBatch frames); the
	// blank keeps every later kind's number.
	_
	// KindLoadReport carries a matcher's per-dimension (subs, q, λ, μ).
	KindLoadReport
	// KindTableRequest asks a matcher for its segment table.
	KindTableRequest
	// KindTableResponse returns an encoded partition table.
	KindTableResponse
	// KindGossip carries gossip-layer state (opaque to this package).
	KindGossip
	// KindTransfer is retired: handovers send KindTransferRange, and
	// matchers ignore a KindTransfer frame. The kind, TransferBody and
	// DecodeTransfer stay so a matcher journal written before the switch
	// (recTransfer records) still replays.
	KindTransfer
	// KindPoll asks for queued deliveries (indirect delivery mode).
	KindPoll
	// KindPollResponse returns queued deliveries.
	KindPollResponse
	// KindError reports a request failure.
	KindError
)

// String names the kind.
func (k Kind) String() string {
	names := map[Kind]string{
		KindSubscribe: "subscribe", KindSubscribeAck: "subscribe-ack",
		KindStore: "store", KindUnsubscribe: "unsubscribe",
		KindPublish: "publish", KindForward: "forward",
		KindLoadReport: "load-report", KindTableRequest: "table-request",
		KindTableResponse: "table-response", KindGossip: "gossip",
		KindTransfer: "transfer", KindPoll: "poll",
		KindPollResponse: "poll-response", KindError: "error",
		KindForwardBatch: "forward-batch", KindDeliverBatch: "deliver-batch",
		KindForwardAckBatch: "forward-ack-batch", KindPublishReq: "publish-req",
		KindPublishAck: "publish-ack", KindTransferRange: "transfer-range",
		KindSessionHello: "session-hello", KindSessionWelcome: "session-welcome",
		KindSessionSub: "session-sub", KindSessionSubAck: "session-sub-ack",
		KindSessionUnsub: "session-unsub", KindEdgeDeliver: "edge-deliver",
		KindSessionAck: "session-ack", KindSessionClose: "session-close",
		KindSummaryRequest: "summary-request", KindSummaryResponse: "summary-response",
		KindSummaryAnnounce: "summary-announce", KindSummaryDelta: "summary-delta",
		KindFedPublish: "fed-publish", KindFedAck: "fed-ack",
	}
	if s, ok := names[k]; ok {
		return s
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Envelope is one framed protocol message.
type Envelope struct {
	// Kind discriminates the body.
	Kind Kind
	// From is the sending node (0 for clients).
	From core.NodeID
	// Body is the kind-specific encoded payload.
	Body []byte
}

// Message body encoders/decoders. Each XxxBody struct has Encode() []byte
// and a matching DecodeXxx([]byte) function.

// AppendMessage appends m's encoding — the publication as it sits inside
// Forward, Deliver and EdgeDeliver bodies — to buf and returns the extended
// slice, so a sender fanning one publication out to many receivers encodes
// it once (see EncodeEdgeDeliver). It grows buf at most once.
func AppendMessage(buf []byte, m *core.Message) []byte {
	if n := messageSize(m); cap(buf)-len(buf) < n {
		buf = append(make([]byte, 0, len(buf)+n), buf...)
	}
	w := writer{buf: buf}
	encodeMessage(&w, m)
	return w.buf
}

// messageSize is the exact length encodeMessage writes for m.
func messageSize(m *core.Message) int {
	return 8 + 8 + 8 + traceSize(m.Trace) + 2 + 8*len(m.Attrs) + 4 + len(m.Payload)
}

func encodeMessage(w *writer, m *core.Message) {
	w.u64(uint64(m.ID))
	w.i64(m.PublishedAt)
	w.i64(m.TTL)
	encodeTrace(w, m.Trace)
	w.u16(uint16(len(m.Attrs)))
	for _, v := range m.Attrs {
		w.f64(v)
	}
	w.bytes(m.Payload)
}

func decodeMessage(r *reader) *core.Message {
	m := &core.Message{}
	m.ID = core.MessageID(r.u64())
	m.PublishedAt = r.i64()
	m.TTL = r.i64()
	m.Trace = decodeTrace(r)
	k := int(r.u16())
	if k > maxDims {
		r.err = fmt.Errorf("wire: implausible dimension count %d", k)
		return m
	}
	m.Attrs = make([]float64, 0, k)
	for i := 0; i < k; i++ {
		m.Attrs = append(m.Attrs, r.f64())
	}
	m.Payload = r.bytes()
	return m
}

func encodeSubscription(w *writer, s *core.Subscription) {
	w.u64(uint64(s.ID))
	w.u64(uint64(s.Subscriber))
	w.u16(uint16(len(s.Predicates)))
	for _, p := range s.Predicates {
		w.f64(p.Low)
		w.f64(p.High)
	}
}

func decodeSubscription(r *reader) *core.Subscription {
	s := &core.Subscription{}
	s.ID = core.SubscriptionID(r.u64())
	s.Subscriber = core.SubscriberID(r.u64())
	k := int(r.u16())
	if k > maxDims {
		r.err = fmt.Errorf("wire: implausible dimension count %d", k)
		return s
	}
	s.Predicates = make([]core.Range, 0, k)
	for i := 0; i < k; i++ {
		s.Predicates = append(s.Predicates, core.Range{Low: r.f64(), High: r.f64()})
	}
	return s
}

// maxDims bounds decoded dimension counts against corrupt frames.
const maxDims = 1 << 12

// maxListLen bounds decoded list lengths against corrupt frames.
const maxListLen = 1 << 22

// SubscribeBody registers a subscription (client → dispatcher).
type SubscribeBody struct {
	Sub *core.Subscription
	// DeliverAddr, when non-empty, is the subscriber's listen address for
	// direct delivery; empty selects indirect (polled) delivery.
	DeliverAddr string
}

// Encode serializes the body.
func (b *SubscribeBody) Encode() []byte {
	var w writer
	encodeSubscription(&w, b.Sub)
	w.str(b.DeliverAddr)
	return w.buf
}

// DecodeSubscribe parses a SubscribeBody.
func DecodeSubscribe(data []byte) (*SubscribeBody, error) {
	r := reader{buf: data}
	b := &SubscribeBody{Sub: decodeSubscription(&r)}
	b.DeliverAddr = r.str()
	return b, r.finish()
}

// SubscribeAckBody acknowledges a subscription (dispatcher → client).
type SubscribeAckBody struct {
	ID core.SubscriptionID
	// QueueHandle identifies the polled delivery queue (indirect mode).
	QueueHandle uint64
}

// Encode serializes the body.
func (b *SubscribeAckBody) Encode() []byte {
	var w writer
	w.u64(uint64(b.ID))
	w.u64(b.QueueHandle)
	return w.buf
}

// DecodeSubscribeAck parses a SubscribeAckBody.
func DecodeSubscribeAck(data []byte) (*SubscribeAckBody, error) {
	r := reader{buf: data}
	b := &SubscribeAckBody{ID: core.SubscriptionID(r.u64()), QueueHandle: r.u64()}
	return b, r.finish()
}

// StoreBody installs a subscription copy on a matcher (dispatcher →
// matcher), tagged with the mPartition dimension it was assigned along.
type StoreBody struct {
	Dim int
	Sub *core.Subscription
	// DeliverAddr propagates the subscriber's delivery address.
	DeliverAddr string
}

// Encode serializes the body.
func (b *StoreBody) Encode() []byte {
	var w writer
	w.u16(uint16(b.Dim))
	encodeSubscription(&w, b.Sub)
	w.str(b.DeliverAddr)
	return w.buf
}

// DecodeStore parses a StoreBody.
func DecodeStore(data []byte) (*StoreBody, error) {
	r := reader{buf: data}
	b := &StoreBody{Dim: int(r.u16())}
	b.Sub = decodeSubscription(&r)
	b.DeliverAddr = r.str()
	return b, r.finish()
}

// UnsubscribeBody removes a subscription everywhere.
type UnsubscribeBody struct {
	ID core.SubscriptionID
}

// Encode serializes the body.
func (b *UnsubscribeBody) Encode() []byte {
	var w writer
	w.u64(uint64(b.ID))
	return w.buf
}

// DecodeUnsubscribe parses an UnsubscribeBody.
func DecodeUnsubscribe(data []byte) (*UnsubscribeBody, error) {
	r := reader{buf: data}
	b := &UnsubscribeBody{ID: core.SubscriptionID(r.u64())}
	return b, r.finish()
}

// PublishBody carries a publication (client → dispatcher).
type PublishBody struct {
	Msg *core.Message
}

// Encode serializes the body.
func (b *PublishBody) Encode() []byte {
	var w writer
	encodeMessage(&w, b.Msg)
	return w.buf
}

// DecodePublish parses a PublishBody.
func DecodePublish(data []byte) (*PublishBody, error) {
	r := reader{buf: data}
	b := &PublishBody{Msg: decodeMessage(&r)}
	return b, r.finish()
}

// ForwardBody carries a publication one hop to a matcher, marked with the
// dimension whose subscription set the matcher must search.
type ForwardBody struct {
	Dim int
	Msg *core.Message
}

// AppendTo serializes the body into buf (which may be a pooled scratch
// buffer) and returns the extended slice.
func (b *ForwardBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u16(uint16(b.Dim))
	encodeMessage(&w, b.Msg)
	return w.buf
}

// Encode serializes the body.
func (b *ForwardBody) Encode() []byte { return b.AppendTo(nil) }

// DecodeForward parses a ForwardBody.
func DecodeForward(data []byte) (*ForwardBody, error) {
	r := reader{buf: data}
	b := &ForwardBody{Dim: int(r.u16())}
	b.Msg = decodeMessage(&r)
	return b, r.finish()
}

// DeliverBody carries a matched publication to one subscriber, listing the
// subscriber's subscriptions it matched.
type DeliverBody struct {
	// Subscriber is the target client (used by queue hosts to file the
	// delivery in indirect mode).
	Subscriber core.SubscriberID
	Msg        *core.Message
	SubIDs     []core.SubscriptionID
}

// AppendTo serializes the body into buf (which may be a pooled scratch
// buffer) and returns the extended slice.
func (b *DeliverBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u64(uint64(b.Subscriber))
	encodeMessage(&w, b.Msg)
	encodeIDs(&w, b.SubIDs)
	return w.buf
}

// EncodedSize is the exact length AppendTo writes for b, alone or as one
// delivery of a DeliverBatch.
func (b *DeliverBody) EncodedSize() int {
	return 8 + messageSize(b.Msg) + 4 + 8*len(b.SubIDs)
}

// Encode serializes the body into one exact-size allocation.
func (b *DeliverBody) Encode() []byte {
	return b.AppendTo(make([]byte, 0, b.EncodedSize()))
}

// encodeIDs writes a subscription ID list with its u32 count prefix.
func encodeIDs(w *writer, ids []core.SubscriptionID) {
	w.u32(uint32(len(ids)))
	for _, id := range ids {
		w.u64(uint64(id))
	}
}

// DecodeDeliver parses a DeliverBody.
func DecodeDeliver(data []byte) (*DeliverBody, error) {
	r := reader{buf: data}
	b := &DeliverBody{Subscriber: core.SubscriberID(r.u64())}
	b.Msg = decodeMessage(&r)
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible id list length %d", n)
	}
	if r.err == nil {
		b.SubIDs = make([]core.SubscriptionID, 0, n)
		for i := 0; i < n; i++ {
			b.SubIDs = append(b.SubIDs, core.SubscriptionID(r.u64()))
		}
	}
	return b, r.finish()
}

// LoadReportBody carries a matcher's per-dimension load state (matcher →
// dispatcher), the 64-byte push of paper Section IV-C, plus the node's
// durability health so dispatchers can deprioritize degraded matchers.
type LoadReportBody struct {
	Loads []forward.DimLoad
	// Health is the reporter's store.Health (0 healthy, 1 degraded,
	// 2 failed). It rides as a trailing byte so frames from older nodes
	// (which omit it) still decode — absent means healthy.
	Health uint8
}

// Encode serializes the body.
func (b *LoadReportBody) Encode() []byte {
	var w writer
	w.u16(uint16(len(b.Loads)))
	for _, l := range b.Loads {
		w.u32(uint32(l.Subs))
		w.u32(uint32(l.QueueLen))
		w.f64(l.ArrivalRate)
		w.f64(l.MatchRate)
		w.i64(l.ReportedAt)
	}
	w.u8(b.Health)
	return w.buf
}

// DecodeLoadReport parses a LoadReportBody.
func DecodeLoadReport(data []byte) (*LoadReportBody, error) {
	r := reader{buf: data}
	n := int(r.u16())
	if n > maxDims {
		return nil, fmt.Errorf("wire: implausible dimension count %d", n)
	}
	b := &LoadReportBody{}
	if r.err == nil {
		b.Loads = make([]forward.DimLoad, 0, n)
		for i := 0; i < n; i++ {
			b.Loads = append(b.Loads, forward.DimLoad{
				Subs:        int(r.u32()),
				QueueLen:    int(r.u32()),
				ArrivalRate: r.f64(),
				MatchRate:   r.f64(),
				ReportedAt:  r.i64(),
			})
		}
	}
	if r.err == nil && r.off < len(r.buf) {
		b.Health = r.u8() // trailing health byte (absent on older frames)
	}
	return b, r.finish()
}

// TableResponseBody returns an encoded partition table (matcher →
// dispatcher); Table is partition.Table.Encode output.
type TableResponseBody struct {
	Table []byte
}

// Encode serializes the body.
func (b *TableResponseBody) Encode() []byte {
	var w writer
	w.bytes(b.Table)
	return w.buf
}

// DecodeTableResponse parses a TableResponseBody.
func DecodeTableResponse(data []byte) (*TableResponseBody, error) {
	r := reader{buf: data}
	b := &TableResponseBody{Table: r.bytes()}
	return b, r.finish()
}

// TransferBody moved subscription copies during a segment handover
// (matcher → matcher) before TransferRangeBody replaced it; it is decoded
// only to replay old matcher journals.
type TransferBody struct {
	Dim  int
	Subs []*core.Subscription
	// DeliverAddrs aligns with Subs: each subscription's delivery address.
	DeliverAddrs []string
}

// Encode serializes the body.
func (b *TransferBody) Encode() []byte {
	var w writer
	w.u16(uint16(b.Dim))
	w.u32(uint32(len(b.Subs)))
	for i, s := range b.Subs {
		encodeSubscription(&w, s)
		addr := ""
		if i < len(b.DeliverAddrs) {
			addr = b.DeliverAddrs[i]
		}
		w.str(addr)
	}
	return w.buf
}

// DecodeTransfer parses a TransferBody.
func DecodeTransfer(data []byte) (*TransferBody, error) {
	r := reader{buf: data}
	b := &TransferBody{Dim: int(r.u16())}
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible transfer length %d", n)
	}
	if r.err == nil {
		for i := 0; i < n; i++ {
			b.Subs = append(b.Subs, decodeSubscription(&r))
			b.DeliverAddrs = append(b.DeliverAddrs, r.str())
			if r.err != nil {
				break
			}
		}
	}
	return b, r.finish()
}

// PollBody requests queued deliveries for a subscriber (client →
// dispatcher/matcher) in indirect delivery mode.
type PollBody struct {
	Subscriber core.SubscriberID
	// Max bounds the returned batch (0 = implementation default).
	Max uint32
}

// Encode serializes the body.
func (b *PollBody) Encode() []byte {
	var w writer
	w.u64(uint64(b.Subscriber))
	w.u32(b.Max)
	return w.buf
}

// DecodePoll parses a PollBody.
func DecodePoll(data []byte) (*PollBody, error) {
	r := reader{buf: data}
	b := &PollBody{Subscriber: core.SubscriberID(r.u64()), Max: r.u32()}
	return b, r.finish()
}

// PollResponseBody returns queued deliveries.
type PollResponseBody struct {
	Deliveries []DeliverBody
}

// Encode serializes the body.
func (b *PollResponseBody) Encode() []byte {
	var w writer
	w.u32(uint32(len(b.Deliveries)))
	for i := range b.Deliveries {
		w.bytes(b.Deliveries[i].Encode())
	}
	return w.buf
}

// DecodePollResponse parses a PollResponseBody.
func DecodePollResponse(data []byte) (*PollResponseBody, error) {
	r := reader{buf: data}
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible poll batch %d", n)
	}
	b := &PollResponseBody{}
	for i := 0; i < n && r.err == nil; i++ {
		raw := r.bytes()
		if r.err != nil {
			break
		}
		d, err := DecodeDeliver(raw)
		if err != nil {
			return nil, err
		}
		b.Deliveries = append(b.Deliveries, *d)
	}
	return b, r.finish()
}

// ErrorBody reports a request failure.
type ErrorBody struct {
	Text string
}

// Encode serializes the body.
func (b *ErrorBody) Encode() []byte {
	var w writer
	w.str(b.Text)
	return w.buf
}

// DecodeError parses an ErrorBody.
func DecodeError(data []byte) (*ErrorBody, error) {
	r := reader{buf: data}
	b := &ErrorBody{Text: r.str()}
	return b, r.finish()
}
