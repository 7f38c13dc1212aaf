package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"bluedove/internal/core"
	"bluedove/internal/forward"
)

func sampleMsg() *core.Message {
	m := core.NewMessage([]float64{1.5, -2.25, 1000}, []byte("payload"))
	m.ID = 42
	m.PublishedAt = 123456789
	return m
}

func sampleSub() *core.Subscription {
	s := core.NewSubscription(7, []core.Range{{Low: 0, High: 10}, {Low: -5, High: 5}})
	s.ID = 99
	return s
}

func TestSubscribeRoundtrip(t *testing.T) {
	b := &SubscribeBody{Sub: sampleSub(), DeliverAddr: "127.0.0.1:9000"}
	got, err := DecodeSubscribe(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Sub, b.Sub) || got.DeliverAddr != b.DeliverAddr {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, b)
	}
}

func TestSubscribeAckRoundtrip(t *testing.T) {
	b := &SubscribeAckBody{ID: 5, QueueHandle: 77}
	got, err := DecodeSubscribeAck(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if *got != *b {
		t.Fatalf("%+v vs %+v", got, b)
	}
}

func TestStoreRoundtrip(t *testing.T) {
	b := &StoreBody{Dim: 3, Sub: sampleSub(), DeliverAddr: "addr"}
	got, err := DecodeStore(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 3 || !reflect.DeepEqual(got.Sub, b.Sub) || got.DeliverAddr != "addr" {
		t.Fatalf("%+v", got)
	}
}

func TestUnsubscribeRoundtrip(t *testing.T) {
	got, err := DecodeUnsubscribe((&UnsubscribeBody{ID: 9}).Encode())
	if err != nil || got.ID != 9 {
		t.Fatalf("%v %v", got, err)
	}
}

func TestPublishForwardRoundtrip(t *testing.T) {
	p := &PublishBody{Msg: sampleMsg()}
	gp, err := DecodePublish(p.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gp.Msg, p.Msg) {
		t.Fatalf("%+v vs %+v", gp.Msg, p.Msg)
	}
	f := &ForwardBody{Dim: 2, Msg: sampleMsg()}
	gf, err := DecodeForward(f.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if gf.Dim != 2 || !reflect.DeepEqual(gf.Msg, f.Msg) {
		t.Fatalf("%+v", gf)
	}
}

func TestDeliverRoundtrip(t *testing.T) {
	b := &DeliverBody{Msg: sampleMsg(), SubIDs: []core.SubscriptionID{1, 2, 3}}
	got, err := DecodeDeliver(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.SubIDs, b.SubIDs) || !reflect.DeepEqual(got.Msg, b.Msg) {
		t.Fatalf("%+v", got)
	}
	// Empty ID list.
	e := &DeliverBody{Msg: sampleMsg()}
	got2, err := DecodeDeliver(e.Encode())
	if err != nil || len(got2.SubIDs) != 0 {
		t.Fatalf("%v %v", got2, err)
	}
}

func TestLoadReportRoundtrip(t *testing.T) {
	b := &LoadReportBody{Loads: []forward.DimLoad{
		{Subs: 10, QueueLen: 3, ArrivalRate: 1.5, MatchRate: 2.5, ReportedAt: 999},
		{Subs: 0, QueueLen: 0, ArrivalRate: 0, MatchRate: 0, ReportedAt: -1},
	}}
	got, err := DecodeLoadReport(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Loads, b.Loads) {
		t.Fatalf("%+v vs %+v", got.Loads, b.Loads)
	}
}

// The trailing health byte round-trips, and a frame without it (an older
// node's encoding) decodes as healthy.
func TestLoadReportHealthByte(t *testing.T) {
	b := &LoadReportBody{
		Loads:  []forward.DimLoad{{Subs: 1, QueueLen: 2, ArrivalRate: 3, MatchRate: 4, ReportedAt: 5}},
		Health: 2,
	}
	enc := b.Encode()
	got, err := DecodeLoadReport(enc)
	if err != nil || got.Health != 2 {
		t.Fatalf("health round-trip: %+v, %v", got, err)
	}
	old, err := DecodeLoadReport(enc[:len(enc)-1]) // pre-health frame
	if err != nil {
		t.Fatalf("health-less frame rejected: %v", err)
	}
	if old.Health != 0 {
		t.Fatalf("absent health byte decoded as %d, want 0 (healthy)", old.Health)
	}
	if !reflect.DeepEqual(old.Loads, b.Loads) {
		t.Fatalf("loads corrupted by health-less decode: %+v", old.Loads)
	}
}

func TestTableResponseRoundtrip(t *testing.T) {
	b := &TableResponseBody{Table: []byte{1, 2, 3, 4}}
	got, err := DecodeTableResponse(b.Encode())
	if err != nil || !bytes.Equal(got.Table, b.Table) {
		t.Fatalf("%v %v", got, err)
	}
}

func TestTransferRoundtrip(t *testing.T) {
	b := &TransferBody{
		Dim:          1,
		Subs:         []*core.Subscription{sampleSub(), sampleSub()},
		DeliverAddrs: []string{"a", "b"},
	}
	got, err := DecodeTransfer(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if got.Dim != 1 || len(got.Subs) != 2 || got.DeliverAddrs[1] != "b" {
		t.Fatalf("%+v", got)
	}
	// Missing addrs pad to empty strings.
	b2 := &TransferBody{Dim: 0, Subs: []*core.Subscription{sampleSub()}}
	got2, err := DecodeTransfer(b2.Encode())
	if err != nil || got2.DeliverAddrs[0] != "" {
		t.Fatalf("%+v %v", got2, err)
	}
}

func TestPollRoundtrip(t *testing.T) {
	b := &PollBody{Subscriber: 4, Max: 100}
	got, err := DecodePoll(b.Encode())
	if err != nil || *got != *b {
		t.Fatalf("%+v %v", got, err)
	}
	pr := &PollResponseBody{Deliveries: []DeliverBody{
		{Msg: sampleMsg(), SubIDs: []core.SubscriptionID{8}},
		{Msg: sampleMsg()},
	}}
	gotPR, err := DecodePollResponse(pr.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(gotPR.Deliveries) != 2 || gotPR.Deliveries[0].SubIDs[0] != 8 {
		t.Fatalf("%+v", gotPR)
	}
}

func TestErrorRoundtrip(t *testing.T) {
	got, err := DecodeError((&ErrorBody{Text: "boom"}).Encode())
	if err != nil || got.Text != "boom" {
		t.Fatalf("%v %v", got, err)
	}
}

func TestKindString(t *testing.T) {
	if KindPublish.String() != "publish" || Kind(200).String() == "" {
		t.Error("Kind.String")
	}
}

// TestKindNumbers pins every kind's value: a kind is its number on the wire,
// so renumbering one breaks nodes running the previous build.
func TestKindNumbers(t *testing.T) {
	for k, want := range map[Kind]uint8{
		KindSubscribe: 1, KindSubscribeAck: 2, KindStore: 3, KindUnsubscribe: 4,
		KindPublish: 5, KindForward: 6, KindLoadReport: 8, KindTableRequest: 9,
		KindTableResponse: 10, KindGossip: 11, KindTransfer: 12, KindPoll: 13,
		KindPollResponse: 14, KindError: 15,
		KindJoin: 64, KindJoinAck: 65, KindHandover: 66, KindForwardAck: 67,
		KindForwardBatch: 68, KindDeliverBatch: 69, KindForwardAckBatch: 70,
		KindPublishReq: 72, KindPublishAck: 73, KindTransferRange: 74,
		KindSessionHello: 80, KindSessionWelcome: 81, KindSessionSub: 82,
		KindSessionSubAck: 83, KindSessionUnsub: 84, KindEdgeDeliver: 85,
		KindSessionAck: 86, KindSessionClose: 87,
		KindSummaryRequest: 90, KindSummaryResponse: 91, KindSummaryAnnounce: 92,
		KindSummaryDelta: 93, KindFedPublish: 94, KindFedAck: 95,
	} {
		if uint8(k) != want {
			t.Errorf("%v = %d, want %d", k, uint8(k), want)
		}
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Kind: KindForward, From: 12, Body: []byte("hello")}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	if buf.Len() != FrameSize(env) {
		t.Errorf("FrameSize = %d, wrote %d", FrameSize(env), buf.Len())
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != env.Kind || got.From != env.From || !bytes.Equal(got.Body, env.Body) {
		t.Fatalf("%+v vs %+v", got, env)
	}
}

func TestFrameEmptyBody(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, &Envelope{Kind: KindPoll, From: 1}); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil || got.Kind != KindPoll || len(got.Body) != 0 {
		t.Fatalf("%+v %v", got, err)
	}
}

func TestFrameTooLarge(t *testing.T) {
	var buf bytes.Buffer
	big := &Envelope{Kind: KindPublish, Body: make([]byte, MaxFrame)}
	if err := WriteFrame(&buf, big); err == nil {
		t.Error("oversized frame accepted")
	}
	// Oversized declared length on read.
	var hdr bytes.Buffer
	hdr.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&hdr); err == nil {
		t.Error("oversized declared length accepted")
	}
	// Undersized declared length.
	var hdr2 bytes.Buffer
	hdr2.Write([]byte{1, 0, 0, 0})
	if _, err := ReadFrame(&hdr2); err == nil {
		t.Error("undersized declared length accepted")
	}
}

func TestFrameTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	env := &Envelope{Kind: KindForward, From: 12, Body: []byte("hello")}
	if err := WriteFrame(&buf, env); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for cut := 0; cut < len(data); cut++ {
		if _, err := ReadFrame(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncated frame at %d accepted", cut)
		}
	}
}

// Property: every decoder rejects (never panics on) arbitrary truncations
// of valid encodings.
func TestDecodersRejectTruncation(t *testing.T) {
	bodies := map[string][]byte{
		"subscribe": (&SubscribeBody{Sub: sampleSub(), DeliverAddr: "x"}).Encode(),
		"store":     (&StoreBody{Dim: 1, Sub: sampleSub()}).Encode(),
		"publish":   (&PublishBody{Msg: sampleMsg()}).Encode(),
		"forward":   (&ForwardBody{Dim: 1, Msg: sampleMsg()}).Encode(),
		"deliver":   (&DeliverBody{Msg: sampleMsg(), SubIDs: []core.SubscriptionID{1}}).Encode(),
		"load":      (&LoadReportBody{Loads: []forward.DimLoad{{Subs: 1}}}).Encode(),
		"transfer":  (&TransferBody{Dim: 0, Subs: []*core.Subscription{sampleSub()}}).Encode(),
		"transfer-range": (&TransferRangeBody{TransferID: 9, Dim: 0, Low: 1, High: 2,
			Subs: []*core.Subscription{sampleSub()}}).Encode(),
		"handover": (&HandoverBody{Dim: 1, Low: 3, High: 4, TargetAddr: "x", TransferID: 9}).Encode(),
		"pollresp": (&PollResponseBody{Deliveries: []DeliverBody{{Msg: sampleMsg()}}}).Encode(),
		"busy":     (&ForwardAckBatchBody{Busy: []BusyEntry{{ID: 9, Dim: 1, QueueLen: 4}}}).Encode(),
	}
	decoders := map[string]func([]byte) error{
		"subscribe":      func(b []byte) error { _, err := DecodeSubscribe(b); return err },
		"store":          func(b []byte) error { _, err := DecodeStore(b); return err },
		"publish":        func(b []byte) error { _, err := DecodePublish(b); return err },
		"forward":        func(b []byte) error { _, err := DecodeForward(b); return err },
		"deliver":        func(b []byte) error { _, err := DecodeDeliver(b); return err },
		"load":           func(b []byte) error { _, err := DecodeLoadReport(b); return err },
		"transfer":       func(b []byte) error { _, err := DecodeTransfer(b); return err },
		"transfer-range": func(b []byte) error { _, err := DecodeTransferRange(b); return err },
		"handover":       func(b []byte) error { _, err := DecodeHandover(b); return err },
		"pollresp":       func(b []byte) error { _, err := DecodePollResponse(b); return err },
		"busy":           func(b []byte) error { _, err := DecodeForwardAckBatch(b); return err },
	}
	for name, body := range bodies {
		dec := decoders[name]
		if err := dec(body); err != nil {
			t.Fatalf("%s: valid body rejected: %v", name, err)
		}
		for cut := 0; cut < len(body); cut++ {
			// The load report's final byte is the optional health field:
			// frames from older nodes legally omit it, so cutting exactly
			// that byte must still decode.
			if name == "load" && cut == len(body)-1 {
				if err := dec(body[:cut]); err != nil {
					t.Errorf("load: health-less frame rejected: %v", err)
				}
				continue
			}
			if err := dec(body[:cut]); err == nil {
				t.Errorf("%s: truncation at %d accepted", name, cut)
			}
		}
		// Trailing garbage must be rejected too.
		if err := dec(append(append([]byte{}, body...), 0xAB)); err == nil {
			t.Errorf("%s: trailing byte accepted", name)
		}
	}
}

// Property: random garbage never panics any decoder.
func TestDecodersSurviveGarbage(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	decs := []func([]byte) error{
		func(b []byte) error { _, err := DecodeSubscribe(b); return err },
		func(b []byte) error { _, err := DecodeStore(b); return err },
		func(b []byte) error { _, err := DecodePublish(b); return err },
		func(b []byte) error { _, err := DecodeForward(b); return err },
		func(b []byte) error { _, err := DecodeDeliver(b); return err },
		func(b []byte) error { _, err := DecodeLoadReport(b); return err },
		func(b []byte) error { _, err := DecodeTransfer(b); return err },
		func(b []byte) error { _, err := DecodeTransferRange(b); return err },
		func(b []byte) error { _, err := DecodeHandover(b); return err },
		func(b []byte) error { _, err := DecodePollResponse(b); return err },
		func(b []byte) error { _, err := DecodePoll(b); return err },
		func(b []byte) error { _, err := DecodeError(b); return err },
	}
	for i := 0; i < 500; i++ {
		b := make([]byte, rng.Intn(200))
		rng.Read(b)
		for _, dec := range decs {
			_ = dec(b) // must not panic
		}
	}
}

// Property: message and subscription roundtrips preserve arbitrary values.
func TestMessageRoundtripProperty(t *testing.T) {
	f := func(id uint64, ts int64, attrs []float64, payload []byte) bool {
		if len(attrs) > 64 {
			attrs = attrs[:64]
		}
		m := core.NewMessage(attrs, payload)
		m.ID = core.MessageID(id)
		m.PublishedAt = ts
		got, err := DecodePublish((&PublishBody{Msg: m}).Encode())
		if err != nil {
			return false
		}
		if got.Msg.ID != m.ID || got.Msg.PublishedAt != ts || len(got.Msg.Attrs) != len(m.Attrs) {
			return false
		}
		for i := range m.Attrs {
			// NaN-safe comparison: NaN roundtrips to NaN.
			same := got.Msg.Attrs[i] == m.Attrs[i] ||
				(got.Msg.Attrs[i] != got.Msg.Attrs[i] && m.Attrs[i] != m.Attrs[i])
			if !same {
				return false
			}
		}
		return bytes.Equal(got.Msg.Payload, m.Payload)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestForwardAckRoundtrip(t *testing.T) {
	got, err := DecodeForwardAck((&ForwardAckBody{ID: 77}).Encode())
	if err != nil || got.ID != 77 {
		t.Fatalf("%v %v", got, err)
	}
	if _, err := DecodeForwardAck([]byte{1}); err == nil {
		t.Error("truncated ack accepted")
	}
}

func TestJoinBodiesRoundtrip(t *testing.T) {
	j, err := DecodeJoin((&JoinBody{ID: 3, Addr: "a:1"}).Encode())
	if err != nil || j.ID != 3 || j.Addr != "a:1" {
		t.Fatalf("%v %v", j, err)
	}
	a, err := DecodeJoinAck((&JoinAckBody{Table: []byte{1}, Err: "e"}).Encode())
	if err != nil || a.Err != "e" || len(a.Table) != 1 {
		t.Fatalf("%v %v", a, err)
	}
	h, err := DecodeHandover((&HandoverBody{Dim: 1, Low: 2, High: 3, TargetAddr: "t"}).Encode())
	if err != nil || h.Dim != 1 || h.Low != 2 || h.High != 3 || h.TargetAddr != "t" {
		t.Fatalf("%v %v", h, err)
	}
}
