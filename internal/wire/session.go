package wire

import (
	"fmt"

	"bluedove/internal/core"
)

// Session frame kinds (edge tier): a subscriber connects to an edge server
// with a lightweight session — hello/resume handshake, per-session
// subscribe/unsubscribe, sequence-stamped deliveries and cumulative acks —
// instead of registering straight with a dispatcher. The edge multiplexes
// many such sessions behind one aggregated upstream subscriber.
const (
	// KindSessionHello opens (Token == 0) or resumes (Token != 0) a session
	// (client → edge, request/response).
	KindSessionHello Kind = 80 + iota
	// KindSessionWelcome answers a hello with the session token and resume
	// outcome.
	KindSessionWelcome
	// KindSessionSub registers one session subscription with the edge.
	KindSessionSub
	// KindSessionSubAck returns the edge-assigned subscription ID.
	KindSessionSubAck
	// KindSessionUnsub removes one session subscription.
	KindSessionUnsub
	// KindEdgeDeliver carries one matched publication to a session,
	// sequence-stamped for resume (edge → client, one-way).
	KindEdgeDeliver
	// KindSessionAck acknowledges deliveries cumulatively up to a sequence
	// (client → edge, one-way); acked entries leave the session's buffers.
	KindSessionAck
	// KindSessionClose ends a session for good (client → edge, one-way):
	// the edge frees its buffers, resume ring and subscriptions, and the
	// token can no longer be resumed.
	KindSessionClose
)

// SessionHelloBody opens or resumes an edge session. Token 0 asks for a new
// session; a non-zero Token resumes a previous one, with LastSeq the highest
// delivery sequence the subscriber has seen (the edge replays everything
// newer that its bounded per-session ring still holds).
type SessionHelloBody struct {
	Token      uint64
	LastSeq    uint64
	Subscriber core.SubscriberID
	// DeliverAddr is the subscriber's listen address for pushed
	// KindEdgeDeliver frames. Empty on locally attached (in-process)
	// sessions.
	DeliverAddr string
}

// Encode serializes the body.
func (b *SessionHelloBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	w.u64(b.LastSeq)
	w.u64(uint64(b.Subscriber))
	w.str(b.DeliverAddr)
	return w.buf
}

// DecodeSessionHello parses a SessionHelloBody.
func DecodeSessionHello(data []byte) (*SessionHelloBody, error) {
	r := reader{buf: data}
	b := &SessionHelloBody{
		Token:      r.u64(),
		LastSeq:    r.u64(),
		Subscriber: core.SubscriberID(r.u64()),
	}
	b.DeliverAddr = r.str()
	return b, r.finish()
}

// SessionWelcomeBody answers a hello. On a resume, Lost counts the
// publications that fell off the per-session ring before the subscriber
// reconnected — in-window deliveries are replayed, Lost ones are gone.
type SessionWelcomeBody struct {
	Token   uint64
	Resumed bool
	// NextSeq is the sequence the next fresh delivery will carry.
	NextSeq uint64
	// Lost is the number of deliveries that aged out of the resume ring
	// (always 0 on a fresh session).
	Lost uint64
	// Err is non-empty when the hello was rejected (e.g. unknown token).
	Err string
}

// Encode serializes the body.
func (b *SessionWelcomeBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	var resumed uint8
	if b.Resumed {
		resumed = 1
	}
	w.u8(resumed)
	w.u64(b.NextSeq)
	w.u64(b.Lost)
	w.str(b.Err)
	return w.buf
}

// DecodeSessionWelcome parses a SessionWelcomeBody.
func DecodeSessionWelcome(data []byte) (*SessionWelcomeBody, error) {
	r := reader{buf: data}
	b := &SessionWelcomeBody{Token: r.u64()}
	b.Resumed = r.u8() != 0
	b.NextSeq = r.u64()
	b.Lost = r.u64()
	b.Err = r.str()
	return b, r.finish()
}

// SessionSubBody registers one subscription under a session. The edge
// assigns the subscription ID (Sub.ID is ignored on the way in) and folds
// the predicate into its aggregated upstream subscriber.
type SessionSubBody struct {
	Token uint64
	Sub   *core.Subscription
}

// Encode serializes the body.
func (b *SessionSubBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	encodeSubscription(&w, b.Sub)
	return w.buf
}

// DecodeSessionSub parses a SessionSubBody.
func DecodeSessionSub(data []byte) (*SessionSubBody, error) {
	r := reader{buf: data}
	b := &SessionSubBody{Token: r.u64()}
	b.Sub = decodeSubscription(&r)
	return b, r.finish()
}

// SessionSubAckBody returns the edge-assigned subscription ID.
type SessionSubAckBody struct {
	ID  core.SubscriptionID
	Err string
}

// Encode serializes the body.
func (b *SessionSubAckBody) Encode() []byte {
	var w writer
	w.u64(uint64(b.ID))
	w.str(b.Err)
	return w.buf
}

// DecodeSessionSubAck parses a SessionSubAckBody.
func DecodeSessionSubAck(data []byte) (*SessionSubAckBody, error) {
	r := reader{buf: data}
	b := &SessionSubAckBody{ID: core.SubscriptionID(r.u64())}
	b.Err = r.str()
	return b, r.finish()
}

// SessionUnsubBody removes one session subscription.
type SessionUnsubBody struct {
	Token uint64
	ID    core.SubscriptionID
}

// Encode serializes the body.
func (b *SessionUnsubBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	w.u64(uint64(b.ID))
	return w.buf
}

// DecodeSessionUnsub parses a SessionUnsubBody.
func DecodeSessionUnsub(data []byte) (*SessionUnsubBody, error) {
	r := reader{buf: data}
	b := &SessionUnsubBody{Token: r.u64(), ID: core.SubscriptionID(r.u64())}
	return b, r.finish()
}

// EdgeDeliverBody carries one matched publication to a session. Seq is the
// session-scoped delivery sequence (strictly increasing, never reused) that
// drives cumulative acks and resume replay.
type EdgeDeliverBody struct {
	Seq    uint64
	Msg    *core.Message
	SubIDs []core.SubscriptionID
}

// AppendTo serializes the body into buf (which may be a pooled scratch
// buffer) and returns the extended slice.
func (b *EdgeDeliverBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u64(b.Seq)
	encodeMessage(&w, b.Msg)
	encodeIDs(&w, b.SubIDs)
	return w.buf
}

// Encode serializes the body.
func (b *EdgeDeliverBody) Encode() []byte { return b.AppendTo(nil) }

// EncodeEdgeDeliver builds the EdgeDeliverBody encoding of seq, a message
// already encoded by AppendMessage, and ids in one exact-size allocation.
// Its bytes equal (&EdgeDeliverBody{Seq: seq, Msg: m, SubIDs: ids}).Encode():
// an edge encodes each publication once and copies it into every session's
// frame.
func EncodeEdgeDeliver(seq uint64, msg []byte, ids []core.SubscriptionID) []byte {
	w := writer{buf: make([]byte, 0, 8+len(msg)+4+8*len(ids))}
	w.u64(seq)
	w.buf = append(w.buf, msg...)
	encodeIDs(&w, ids)
	return w.buf
}

// DecodeEdgeDeliver parses an EdgeDeliverBody.
func DecodeEdgeDeliver(data []byte) (*EdgeDeliverBody, error) {
	r := reader{buf: data}
	b := &EdgeDeliverBody{Seq: r.u64()}
	b.Msg = decodeMessage(&r)
	n := int(r.u32())
	if n > maxListLen {
		return nil, fmt.Errorf("wire: implausible id list length %d", n)
	}
	if r.err == nil && n > 0 {
		b.SubIDs = make([]core.SubscriptionID, 0, n)
		for i := 0; i < n; i++ {
			b.SubIDs = append(b.SubIDs, core.SubscriptionID(r.u64()))
		}
	}
	return b, r.finish()
}

// SessionAckBody acknowledges deliveries cumulatively: every entry with
// sequence <= Seq may leave the session's send buffer and resume ring.
type SessionAckBody struct {
	Token uint64
	Seq   uint64
}

// Encode serializes the body.
func (b *SessionAckBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	w.u64(b.Seq)
	return w.buf
}

// DecodeSessionAck parses a SessionAckBody.
func DecodeSessionAck(data []byte) (*SessionAckBody, error) {
	r := reader{buf: data}
	b := &SessionAckBody{Token: r.u64(), Seq: r.u64()}
	return b, r.finish()
}

// SessionCloseBody ends a session permanently: the edge drops the session's
// buffers, resume ring and subscriptions. Unlike a disconnect (which keeps
// the session resumable), a closed token is gone.
type SessionCloseBody struct {
	Token uint64
}

// Encode serializes the body.
func (b *SessionCloseBody) Encode() []byte {
	var w writer
	w.u64(b.Token)
	return w.buf
}

// DecodeSessionClose parses a SessionCloseBody.
func DecodeSessionClose(data []byte) (*SessionCloseBody, error) {
	r := reader{buf: data}
	b := &SessionCloseBody{Token: r.u64()}
	return b, r.finish()
}
