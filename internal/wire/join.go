package wire

import (
	"fmt"

	"bluedove/internal/core"
)

// Join/handover protocol kinds (paper Section III-C: "When a new matcher
// joins the system, it randomly contacts a dispatcher. The dispatcher
// chooses a heavily loaded matcher, and for each segment on that matcher
// splits half of the segment to the new matcher.").
const (
	// KindJoin is a new matcher announcing itself to a dispatcher.
	KindJoin Kind = 64 + iota
	// KindJoinAck returns the post-join segment table to the new matcher.
	KindJoinAck
	// KindHandover instructs a victim matcher to transfer a segment's
	// subscriptions to the joining matcher.
	KindHandover
)

// JoinBody announces a joining matcher.
type JoinBody struct {
	ID   core.NodeID
	Addr string
}

// Encode serializes the body.
func (b *JoinBody) Encode() []byte {
	var w writer
	w.u64(uint64(b.ID))
	w.str(b.Addr)
	return w.buf
}

// DecodeJoin parses a JoinBody.
func DecodeJoin(data []byte) (*JoinBody, error) {
	r := reader{buf: data}
	b := &JoinBody{ID: core.NodeID(r.u64()), Addr: r.str()}
	return b, r.finish()
}

// JoinAckBody carries the new segment table (partition.Table.Encode) back
// to the joining matcher, or an error text.
type JoinAckBody struct {
	Table []byte
	Err   string
}

// Encode serializes the body.
func (b *JoinAckBody) Encode() []byte {
	var w writer
	w.bytes(b.Table)
	w.str(b.Err)
	return w.buf
}

// DecodeJoinAck parses a JoinAckBody.
func DecodeJoinAck(data []byte) (*JoinAckBody, error) {
	r := reader{buf: data}
	b := &JoinAckBody{Table: r.bytes(), Err: r.str()}
	return b, r.finish()
}

// HandoverBody instructs the receiving matcher to send every subscription
// in its dimension-Dim set overlapping [Low, High) to TargetAddr. TransferID,
// when non-zero, is the idempotency key the receiver must stamp on the
// outgoing range transfer (see TransferRangeID); the originator derives it
// from the table version that caused the handover, so re-issued handovers
// produce identical transfer frames and the target adopts them at most once.
type HandoverBody struct {
	Dim        int
	Low, High  float64
	TargetAddr string
	TransferID uint64
}

// Encode serializes the body.
func (b *HandoverBody) Encode() []byte {
	var w writer
	w.u16(uint16(b.Dim))
	w.f64(b.Low)
	w.f64(b.High)
	w.str(b.TargetAddr)
	w.u64(b.TransferID)
	return w.buf
}

// DecodeHandover parses a HandoverBody.
func DecodeHandover(data []byte) (*HandoverBody, error) {
	r := reader{buf: data}
	b := &HandoverBody{Dim: int(r.u16()), Low: r.f64(), High: r.f64(), TargetAddr: r.str()}
	b.TransferID = r.u64()
	if b.Dim < 0 || b.Dim > maxDims {
		return nil, fmt.Errorf("wire: implausible dimension %d", b.Dim)
	}
	return b, r.finish()
}

// KindForwardAck acknowledges one matched publication. Matchers ack with
// KindForwardAckBatch and no dispatcher handles this kind; only the
// benchmark's stub matcher still sends it.
const KindForwardAck Kind = 67

// ForwardAckBody acknowledges one forwarded message. Trace, when non-nil,
// carries the matcher's stamped trace context back to the dispatcher.
type ForwardAckBody struct {
	ID    core.MessageID
	Trace *core.TraceCtx
}

// AppendTo serializes the body into buf (which may be a pooled scratch
// buffer) and returns the extended slice.
func (b *ForwardAckBody) AppendTo(buf []byte) []byte {
	w := writer{buf: buf}
	w.u64(uint64(b.ID))
	encodeTrace(&w, b.Trace)
	return w.buf
}

// Encode serializes the body.
func (b *ForwardAckBody) Encode() []byte { return b.AppendTo(nil) }

// DecodeForwardAck parses a ForwardAckBody.
func DecodeForwardAck(data []byte) (*ForwardAckBody, error) {
	r := reader{buf: data}
	b := &ForwardAckBody{ID: core.MessageID(r.u64())}
	b.Trace = decodeTrace(&r)
	return b, r.finish()
}
