package wire

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"bluedove/internal/core"
)

func TestSessionHelloRoundTrip(t *testing.T) {
	in := &SessionHelloBody{Token: 77, LastSeq: 41, Subscriber: 9, DeliverAddr: "edge-client-9"}
	out, err := DecodeSessionHello(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
	// Fresh hello: zero token, no deliver addr (locally attached session).
	fresh := &SessionHelloBody{Subscriber: 3}
	out, err = DecodeSessionHello(fresh.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(fresh, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, fresh)
	}
}

func TestSessionWelcomeRoundTrip(t *testing.T) {
	for _, in := range []*SessionWelcomeBody{
		{Token: 5, Resumed: true, NextSeq: 100, Lost: 3},
		{Token: 6, NextSeq: 1},
		{Err: "edge: unknown session token"},
	} {
		out, err := DecodeSessionWelcome(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
}

func TestSessionSubRoundTrip(t *testing.T) {
	sub := core.NewSubscription(9, []core.Range{{Low: 1, High: 2}, {Low: 3, High: 4}})
	sub.ID = 12
	in := &SessionSubBody{Token: 88, Sub: sub}
	out, err := DecodeSessionSub(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.Token != in.Token || !reflect.DeepEqual(in.Sub, out.Sub) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestSessionSubAckAndUnsubRoundTrip(t *testing.T) {
	for _, in := range []*SessionSubAckBody{{ID: 42}, {Err: "edge: session detached"}} {
		out, err := DecodeSessionSubAck(in.Encode())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip: got %+v, want %+v", out, in)
		}
	}
	u := &SessionUnsubBody{Token: 5, ID: 42}
	out, err := DecodeSessionUnsub(u.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(u, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, u)
	}
}

func TestEdgeDeliverRoundTrip(t *testing.T) {
	msg := core.NewMessage([]float64{1, 2, 3, 4}, []byte("payload"))
	msg.ID = 7
	msg.PublishedAt = 12345
	in := &EdgeDeliverBody{Seq: 99, Msg: msg, SubIDs: []core.SubscriptionID{1, 2, 3}}
	out, err := DecodeEdgeDeliver(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// encodeOnceCase is one delivery for the encode-once identity tests.
type encodeOnceCase struct {
	name string
	msg  *core.Message
	ids  []core.SubscriptionID
}

// encodeOnceCases crosses traced and untraced messages, empty and 64-byte
// payloads, and 0, 1 and 200 subscription IDs.
func encodeOnceCases() []encodeOnceCase {
	var out []encodeOnceCase
	for _, traced := range []bool{false, true} {
		for _, payload := range [][]byte{nil, make([]byte, 64)} {
			for _, n := range []int{0, 1, 200} {
				m := fuzzMsg()
				if traced {
					m = fuzzTracedMsg()
				}
				for i := range payload {
					payload[i] = byte(i)
				}
				m.Payload = payload
				ids := make([]core.SubscriptionID, n)
				for i := range ids {
					ids[i] = core.SubscriptionID(1<<40 | i)
				}
				out = append(out, encodeOnceCase{
					name: fmt.Sprintf("traced=%v/payload=%d/ids=%d", traced, len(payload), n),
					msg:  m, ids: ids,
				})
			}
		}
	}
	return out
}

// An edge encodes each publication once and copies it into every session's
// frame; the frames must equal a per-session EdgeDeliverBody encode byte for
// byte. DeliverBody.Encode sizes its buffer up front; its bytes must equal
// the grow-from-nil encoding, in one exact-size allocation.
func TestEncodeOnceMatchesPerFrameEncode(t *testing.T) {
	for _, c := range encodeOnceCases() {
		t.Run(c.name, func(t *testing.T) {
			enc := AppendMessage(nil, c.msg)
			if len(enc) != messageSize(c.msg) {
				t.Fatalf("message encodes to %d bytes, messageSize says %d", len(enc), messageSize(c.msg))
			}
			if n := testing.AllocsPerRun(10, func() { AppendMessage(nil, c.msg) }); n != 1 {
				t.Fatalf("AppendMessage(nil, m) allocated %v times, want 1", n)
			}
			got := EncodeEdgeDeliver(99, enc, c.ids)
			want := (&EdgeDeliverBody{Seq: 99, Msg: c.msg, SubIDs: c.ids}).Encode()
			if !bytes.Equal(got, want) {
				t.Fatalf("EncodeEdgeDeliver differs from EdgeDeliverBody.Encode:\n got %x\nwant %x", got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("EncodeEdgeDeliver allocated %d bytes for %d", cap(got), len(got))
			}
			d := &DeliverBody{Subscriber: 5, Msg: c.msg, SubIDs: c.ids}
			got, want = d.Encode(), d.AppendTo(nil)
			if !bytes.Equal(got, want) {
				t.Fatalf("presized DeliverBody.Encode differs:\n got %x\nwant %x", got, want)
			}
			if cap(got) != len(got) {
				t.Fatalf("DeliverBody.Encode allocated %d bytes for %d", cap(got), len(got))
			}
			if _, err := DecodeDeliver(got); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestSessionAckRoundTrip(t *testing.T) {
	in := &SessionAckBody{Token: 77, Seq: 123456}
	out, err := DecodeSessionAck(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

func TestSessionCloseRoundTrip(t *testing.T) {
	in := &SessionCloseBody{Token: 91}
	out, err := DecodeSessionClose(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(in, out) {
		t.Fatalf("round trip: got %+v, want %+v", out, in)
	}
}

// TestSessionDecodeRejectsTruncation: every session decoder must reject a
// truncated body rather than return a partial struct silently.
func TestSessionDecodeRejectsTruncation(t *testing.T) {
	msg := core.NewMessage([]float64{1}, []byte("x"))
	bodies := map[string][]byte{
		"hello":   (&SessionHelloBody{Token: 1, Subscriber: 2, DeliverAddr: "a"}).Encode(),
		"welcome": (&SessionWelcomeBody{Token: 1, NextSeq: 2}).Encode(),
		"sub": (&SessionSubBody{Token: 1,
			Sub: core.NewSubscription(2, []core.Range{{Low: 0, High: 1}})}).Encode(),
		"sub-ack": (&SessionSubAckBody{ID: 1}).Encode(),
		"unsub":   (&SessionUnsubBody{Token: 1, ID: 2}).Encode(),
		"deliver": (&EdgeDeliverBody{Seq: 1, Msg: msg, SubIDs: []core.SubscriptionID{1}}).Encode(),
		"ack":     (&SessionAckBody{Token: 1, Seq: 2}).Encode(),
		"close":   (&SessionCloseBody{Token: 1}).Encode(),
	}
	decode := func(name string, data []byte) error {
		var err error
		switch name {
		case "hello":
			_, err = DecodeSessionHello(data)
		case "welcome":
			_, err = DecodeSessionWelcome(data)
		case "sub":
			_, err = DecodeSessionSub(data)
		case "sub-ack":
			_, err = DecodeSessionSubAck(data)
		case "unsub":
			_, err = DecodeSessionUnsub(data)
		case "deliver":
			_, err = DecodeEdgeDeliver(data)
		case "ack":
			_, err = DecodeSessionAck(data)
		case "close":
			_, err = DecodeSessionClose(data)
		}
		return err
	}
	for name, full := range bodies {
		if err := decode(name, full); err != nil {
			t.Fatalf("%s: full body rejected: %v", name, err)
		}
		for cut := 0; cut < len(full); cut++ {
			if err := decode(name, full[:cut]); err == nil {
				t.Fatalf("%s: truncation at %d/%d accepted", name, cut, len(full))
			}
		}
		if err := decode(name, append(append([]byte(nil), full...), 0)); err == nil {
			t.Fatalf("%s: trailing byte accepted", name)
		}
	}
}

// TestEdgeDeliverDecodeBoundsIDList: a corrupt frame declaring a huge SubIDs
// list must be rejected before any allocation sized by it.
func TestEdgeDeliverDecodeBoundsIDList(t *testing.T) {
	msg := core.NewMessage([]float64{1}, nil)
	good := (&EdgeDeliverBody{Seq: 1, Msg: msg, SubIDs: []core.SubscriptionID{1}}).Encode()
	// The id-list length prefix is the u32 right after the message; corrupt
	// it to maxListLen+1 (the SubIDs u64 payload stays, now undersized).
	bad := append([]byte(nil), good...)
	off := len(bad) - 4 - 8 // count prefix sits before the single 8-byte ID
	bad[off] = 0x01
	bad[off+1] = 0x00
	bad[off+2] = 0x40
	bad[off+3] = 0x00 // 1<<22 + 1
	if _, err := DecodeEdgeDeliver(bad); err == nil {
		t.Fatal("implausible id list accepted")
	}
}

// TestSessionHelloEncodeGuardsAddr: encoding an address longer than the
// uint16 string prefix must panic with ErrStringTooLong, like every other
// string-carrying frame, instead of corrupting the frame.
func TestSessionHelloEncodeGuardsAddr(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversized DeliverAddr encoded without panic")
		}
		if err, ok := r.(error); !ok || !strings.Contains(err.Error(), ErrStringTooLong.Error()) {
			t.Fatalf("panic %v, want ErrStringTooLong", r)
		}
	}()
	b := &SessionHelloBody{DeliverAddr: strings.Repeat("x", 70000)}
	b.Encode()
}

// TestEdgeDeliverEncodeZeroAlloc pins the fan-out hot path: encoding an
// EdgeDeliver frame into a pooled buffer allocates nothing, exactly like the
// forward/deliver batch encoders.
func TestEdgeDeliverEncodeZeroAlloc(t *testing.T) {
	msg := core.NewMessage([]float64{1, 2, 3, 4}, []byte("payload"))
	msg.ID = 7
	body := &EdgeDeliverBody{Seq: 42, Msg: msg, SubIDs: []core.SubscriptionID{1, 2}}
	allocs := testing.AllocsPerRun(100, func() {
		buf := GetBuf()
		buf.B = body.AppendTo(buf.B)
		PutBuf(buf)
	})
	if allocs != 0 {
		t.Fatalf("edge deliver encode: %.1f allocs/frame, want 0", allocs)
	}
}

// TestSessionKindStrings: the new kinds must not collide with existing ones
// and must all be named.
func TestSessionKindStrings(t *testing.T) {
	kinds := []Kind{KindSessionHello, KindSessionWelcome, KindSessionSub,
		KindSessionSubAck, KindSessionUnsub, KindEdgeDeliver, KindSessionAck,
		KindSessionClose}
	seen := map[string]bool{}
	for _, k := range kinds {
		s := k.String()
		if strings.HasPrefix(s, "kind(") {
			t.Fatalf("kind %d unnamed", k)
		}
		if seen[s] {
			t.Fatalf("duplicate kind name %q", s)
		}
		seen[s] = true
	}
	// No overlap with the established kind ranges.
	for _, k := range kinds {
		if k < 80 || k > 87 {
			t.Fatalf("session kind %d outside the reserved 80..87 range", k)
		}
	}
}
