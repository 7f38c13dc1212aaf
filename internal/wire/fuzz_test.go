package wire

import (
	"bytes"
	"testing"

	"bluedove/internal/core"
)

// The fuzz targets assert the decoders never panic or over-allocate on
// corrupt input — they must either return a valid body or an error. Seeds
// come from the encode round-trip tests so the interesting structured paths
// are explored from the start. CI runs each with a short -fuzztime smoke.

func fuzzMsg() *core.Message {
	m := core.NewMessage([]float64{1, 2, 3, 4}, []byte("pay"))
	m.ID = 7
	m.PublishedAt = 12345
	return m
}

// fuzzTracedMsg is fuzzMsg carrying a fully stamped trace context, so the
// fuzzers explore the trace-present decode path from the first iteration.
func fuzzTracedMsg() *core.Message {
	m := fuzzMsg()
	m.Trace = &core.TraceCtx{ID: 7, Dispatcher: 100, Matcher: 2, Dim: 3}
	for h := core.Hop(0); h < core.HopCount; h++ {
		m.Trace.Stamp(h, 12345+int64(h))
	}
	return m
}

func FuzzDecodeForward(f *testing.F) {
	f.Add((&ForwardBody{Dim: 2, Msg: fuzzMsg()}).Encode())
	f.Add((&ForwardBody{Dim: 2, Msg: fuzzTracedMsg()}).Encode())
	f.Add((&ForwardBody{Dim: 0, Msg: core.NewMessage(nil, nil)}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeForward(data)
		if err == nil && b.Msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

func FuzzDecodeDeliver(f *testing.F) {
	f.Add((&DeliverBody{Subscriber: 9, Msg: fuzzMsg(),
		SubIDs: []core.SubscriptionID{1, 2, 3}}).Encode())
	f.Add((&DeliverBody{Subscriber: 9, Msg: fuzzTracedMsg(),
		SubIDs: []core.SubscriptionID{1}}).Encode())
	f.Add((&DeliverBody{Msg: core.NewMessage(nil, nil)}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeDeliver(data)
		if err == nil && b.Msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

func FuzzDecodePublish(f *testing.F) {
	f.Add((&PublishBody{Msg: fuzzMsg()}).Encode())
	f.Add((&PublishBody{Msg: fuzzTracedMsg()}).Encode())
	f.Add((&PublishBody{Msg: core.NewMessage(nil, nil)}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodePublish(data)
		if err == nil && b.Msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

// FuzzDecodeSubscribe also feeds each input to DecodeStore: both bodies
// carry the same subscription encoding, a client's and a dispatcher's.
func FuzzDecodeSubscribe(f *testing.F) {
	sub := core.NewSubscription(9, []core.Range{{Low: 1, High: 2}, {Low: 3, High: 4}})
	sub.ID = 5
	f.Add((&SubscribeBody{Sub: sub, DeliverAddr: "127.0.0.1:7001"}).Encode())
	f.Add((&SubscribeBody{Sub: core.NewSubscription(1, nil)}).Encode())
	f.Add((&StoreBody{Dim: 1, Sub: sub, DeliverAddr: "127.0.0.1:7001"}).Encode())
	f.Add((&StoreBody{Sub: core.NewSubscription(1, nil)}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		if b, err := DecodeSubscribe(data); err == nil && b.Sub == nil {
			t.Fatal("subscribe: nil subscription without error")
		}
		if b, err := DecodeStore(data); err == nil && b.Sub == nil {
			t.Fatal("store: nil subscription without error")
		}
	})
}

func FuzzDecodeForwardBatch(f *testing.F) {
	f.Add((&ForwardBatchBody{Entries: []ForwardEntry{
		{Dim: 1, Msg: fuzzMsg()}, {Dim: 3, Msg: fuzzMsg()}}}).Encode())
	f.Add((&ForwardBatchBody{Entries: []ForwardEntry{
		{Dim: 1, Msg: fuzzTracedMsg()}, {Dim: 3, Msg: fuzzMsg()}}}).Encode())
	f.Add((&ForwardBatchBody{}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeForwardBatch(data)
		if err == nil {
			for _, e := range b.Entries {
				if e.Msg == nil {
					t.Fatal("nil entry message without error")
				}
			}
		}
	})
}

func FuzzDecodeDeliverBatch(f *testing.F) {
	f.Add((&DeliverBatchBody{Deliveries: []DeliverBody{
		{Subscriber: 1, Msg: fuzzMsg(), SubIDs: []core.SubscriptionID{5}}}}).Encode())
	f.Add((&DeliverBatchBody{Deliveries: []DeliverBody{
		{Subscriber: 1, Msg: fuzzTracedMsg(), SubIDs: []core.SubscriptionID{5}}}}).Encode())
	f.Add((&DeliverBatchBody{}).Encode())
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeDeliverBatch(data)
		if err == nil {
			for i := range b.Deliveries {
				if b.Deliveries[i].Msg == nil {
					t.Fatal("nil delivery message without error")
				}
			}
		}
	})
}

func FuzzDecodeForwardAckBatch(f *testing.F) {
	f.Add((&ForwardAckBatchBody{IDs: []core.MessageID{1, 2, 3}}).Encode())
	f.Add((&ForwardAckBatchBody{IDs: []core.MessageID{7},
		Traces: []AckTrace{{Msg: 7, Ctx: *fuzzTracedMsg().Trace}}}).Encode())
	f.Add((&ForwardAckBatchBody{IDs: []core.MessageID{7},
		Busy: []BusyEntry{{ID: 8, Dim: 2, QueueLen: 64}}}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeForwardAckBatch(data)
		if err == nil && len(b.IDs) == 0 && len(b.Traces) > 0 {
			// Traces always accompany acked IDs in practice, but the decoder
			// only guarantees structural validity; just exercise it.
			_ = b
		}
	})
}

func FuzzDecodeSessionHello(f *testing.F) {
	f.Add((&SessionHelloBody{Token: 7, LastSeq: 3, Subscriber: 9, DeliverAddr: "edge-client-9"}).Encode())
	f.Add((&SessionHelloBody{Subscriber: 1}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSessionHello(data)
		if err == nil && b == nil {
			t.Fatal("nil body without error")
		}
	})
}

func FuzzDecodeSessionWelcome(f *testing.F) {
	f.Add((&SessionWelcomeBody{Token: 7, Resumed: true, NextSeq: 10, Lost: 2}).Encode())
	f.Add((&SessionWelcomeBody{Err: "edge: unknown session token"}).Encode())
	f.Add([]byte{0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSessionWelcome(data)
		if err == nil && b == nil {
			t.Fatal("nil body without error")
		}
	})
}

func FuzzDecodeSessionSub(f *testing.F) {
	sub := core.NewSubscription(9, []core.Range{{Low: 1, High: 2}, {Low: 3, High: 4}})
	sub.ID = 5
	f.Add((&SessionSubBody{Token: 7, Sub: sub}).Encode())
	f.Add((&SessionSubBody{Sub: core.NewSubscription(1, nil)}).Encode())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSessionSub(data)
		if err == nil && b.Sub == nil {
			t.Fatal("nil subscription without error")
		}
	})
}

func FuzzDecodeEdgeDeliver(f *testing.F) {
	f.Add((&EdgeDeliverBody{Seq: 3, Msg: fuzzMsg(),
		SubIDs: []core.SubscriptionID{1, 2, 3}}).Encode())
	f.Add((&EdgeDeliverBody{Seq: 4, Msg: fuzzTracedMsg(),
		SubIDs: []core.SubscriptionID{1}}).Encode())
	f.Add((&EdgeDeliverBody{Msg: core.NewMessage(nil, nil)}).Encode())
	for _, c := range encodeOnceCases() {
		f.Add(EncodeEdgeDeliver(5, AppendMessage(nil, c.msg), c.ids))
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeEdgeDeliver(data)
		if err == nil && b.Msg == nil {
			t.Fatal("nil message without error")
		}
	})
}

func FuzzDecodeSessionAck(f *testing.F) {
	f.Add((&SessionAckBody{Token: 7, Seq: 3}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSessionAck(data)
		if err == nil && b == nil {
			t.Fatal("nil body without error")
		}
	})
}

func FuzzDecodeSessionClose(f *testing.F) {
	f.Add((&SessionCloseBody{Token: 7}).Encode())
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := DecodeSessionClose(data)
		if err == nil && b == nil {
			t.Fatal("nil body without error")
		}
	})
}

func FuzzReadFrame(f *testing.F) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{Kind: KindForward, From: 3,
		Body: (&ForwardBody{Dim: 1, Msg: fuzzMsg()}).Encode()}); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	if err := WriteFrame(&empty, &Envelope{Kind: KindTableRequest, From: 1}); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		r := bytes.NewReader(data)
		env, err := ReadFrame(r)
		if err != nil {
			return
		}
		if env == nil {
			t.Fatal("nil envelope without error")
		}
		// A well-formed frame must re-encode to the same bytes it consumed.
		consumed := len(data) - r.Len()
		var out bytes.Buffer
		if err := WriteFrame(&out, env); err != nil {
			t.Fatalf("re-encode of decoded frame failed: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data[:consumed]) {
			t.Fatal("re-encoded frame differs from input")
		}
	})
}
