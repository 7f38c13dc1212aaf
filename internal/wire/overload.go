package wire

import "bluedove/internal/core"

// Overload-control frame kinds. A matcher whose SEDA stage queue is full
// lists the rejected publication as a BusyEntry in a KindForwardAckBatch
// instead of dropping the forward silently, so the dispatcher can
// immediately re-route it to the next-best candidate. Clients that want edge
// admission control publish with KindPublishReq (request/response) and
// receive either KindPublishAck or KindError with OverloadedPrefix.
//
// Kind 71 is retired; the values below are pinned so no kind is renumbered.
const (
	// KindPublishReq carries a client publication that expects an explicit
	// accept/reject response (client → dispatcher).
	KindPublishReq Kind = 72
	// KindPublishAck confirms an admitted publication (dispatcher → client).
	KindPublishAck Kind = 73
)

// OverloadedPrefix starts the ErrorBody text when a dispatcher rejects a
// publication at admission control. Clients map it to a typed error.
const OverloadedPrefix = "overloaded: "

// BusyEntry is one forwarded publication a full matcher stage rejected,
// listed in a ForwardAckBatchBody: the publication, the dimension whose
// stage was full, and the stage's backlog at rejection time (weighted by
// batch size) so the dispatcher's load view can be corrected without
// waiting for the next load report.
type BusyEntry struct {
	ID       core.MessageID
	Dim      int
	QueueLen int
}

// PublishAckBody confirms an admitted publication and returns the message
// ID the dispatcher assigned to it.
type PublishAckBody struct {
	ID core.MessageID
}

// AppendTo serializes the body into buf and returns the extended slice.
func (b *PublishAckBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u64(uint64(b.ID))
	return w.buf
}

// Encode serializes the body.
func (b *PublishAckBody) Encode() []byte { return b.AppendTo(nil) }

// DecodePublishAck parses a PublishAckBody.
func DecodePublishAck(data []byte) (*PublishAckBody, error) {
	r := reader{buf: data}
	b := &PublishAckBody{ID: core.MessageID(r.u64())}
	return b, r.finish()
}
