package wire

import (
	"errors"
	"fmt"
	"testing"

	"bluedove/internal/core"
)

func testMsg(id uint64) *core.Message {
	m := core.NewMessage([]float64{1.5, 2.5, 3.5, 4.5}, []byte("payload"))
	m.ID = core.MessageID(id)
	m.PublishedAt = int64(id) * 1000
	return m
}

func TestForwardBatchRoundtrip(t *testing.T) {
	b := &ForwardBatchBody{}
	for i := 0; i < 5; i++ {
		b.Entries = append(b.Entries, ForwardEntry{Dim: i % 3, Msg: testMsg(uint64(i + 1))})
	}
	got, err := DecodeForwardBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != len(b.Entries) {
		t.Fatalf("entries: got %d want %d", len(got.Entries), len(b.Entries))
	}
	for i, e := range got.Entries {
		want := b.Entries[i]
		if e.Dim != want.Dim || e.Msg.ID != want.Msg.ID ||
			e.Msg.PublishedAt != want.Msg.PublishedAt ||
			len(e.Msg.Attrs) != len(want.Msg.Attrs) ||
			string(e.Msg.Payload) != string(want.Msg.Payload) {
			t.Fatalf("entry %d mismatch: got %+v want %+v", i, e, want)
		}
	}
}

func TestForwardBatchEmpty(t *testing.T) {
	got, err := DecodeForwardBatch((&ForwardBatchBody{}).Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 0 {
		t.Fatalf("want empty batch, got %d entries", len(got.Entries))
	}
}

func TestDeliverBatchRoundtrip(t *testing.T) {
	b := &DeliverBatchBody{}
	for i := 0; i < 4; i++ {
		b.Deliveries = append(b.Deliveries, DeliverBody{
			Subscriber: core.SubscriberID(i + 10),
			Msg:        testMsg(uint64(i + 1)),
			SubIDs:     []core.SubscriptionID{core.SubscriptionID(i), core.SubscriptionID(i + 100)},
		})
	}
	got, err := DecodeDeliverBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Deliveries) != len(b.Deliveries) {
		t.Fatalf("deliveries: got %d want %d", len(got.Deliveries), len(b.Deliveries))
	}
	for i := range got.Deliveries {
		g, w := got.Deliveries[i], b.Deliveries[i]
		if g.Subscriber != w.Subscriber || g.Msg.ID != w.Msg.ID || len(g.SubIDs) != len(w.SubIDs) {
			t.Fatalf("delivery %d mismatch: got %+v want %+v", i, g, w)
		}
		for j := range g.SubIDs {
			if g.SubIDs[j] != w.SubIDs[j] {
				t.Fatalf("delivery %d sub id %d mismatch", i, j)
			}
		}
	}
}

// TestDeliverBatchMatchesSingleEncoding pins the batch entry layout to the
// standalone DeliverBody layout so the two never drift apart.
func TestDeliverBatchMatchesSingleEncoding(t *testing.T) {
	d := DeliverBody{Subscriber: 7, Msg: testMsg(42), SubIDs: []core.SubscriptionID{1, 2}}
	batch := (&DeliverBatchBody{Deliveries: []DeliverBody{d}}).Encode()
	single := d.Encode()
	// Batch layout: u32 count, then the DeliverBody encoding verbatim.
	if len(batch) != 4+len(single) {
		t.Fatalf("batch entry layout diverged: %d vs 4+%d", len(batch), len(single))
	}
	if string(batch[4:]) != string(single) {
		t.Fatal("batch entry bytes differ from standalone DeliverBody encoding")
	}
}

// TestDeliverEncodedSizeExact pins EncodedSize, which presizes Encode and
// splits the matcher's DeliverBatch frames, to the bytes actually written by
// the deliver body and the three batch bodies, traced and untraced, across
// payload and ID-list lengths; Encode is one exact-size allocation.
func TestDeliverEncodedSizeExact(t *testing.T) {
	type sized interface {
		Encode() []byte
		EncodedSize() int
	}
	type tc struct {
		name string
		body sized
	}
	var cases []tc
	add := func(b sized, format string, args ...any) {
		cases = append(cases, tc{fmt.Sprintf(format, args...), b})
	}
	for _, traced := range []bool{false, true} {
		for _, payload := range []int{0, 64} {
			for _, n := range []int{0, 1, 200} {
				m := core.NewMessage([]float64{1.5, 2.5, 3.5, 4.5}, make([]byte, payload))
				if traced {
					m.Trace = &core.TraceCtx{ID: 3, Dispatcher: 1, Matcher: 2, Dim: 1}
				}
				d := DeliverBody{Subscriber: 7, Msg: m, SubIDs: make([]core.SubscriptionID, n)}
				add(&d, "deliver traced=%v payload=%d ids=%d", traced, payload, n)
				add(&DeliverBatchBody{Deliveries: []DeliverBody{d, d}},
					"deliver-batch traced=%v payload=%d ids=%d", traced, payload, n)
				fwd := &ForwardBatchBody{}
				ack := &ForwardAckBatchBody{}
				for i := 0; i < n; i++ {
					fwd.Entries = append(fwd.Entries, ForwardEntry{Dim: i % 4, Msg: m})
					ack.IDs = append(ack.IDs, core.MessageID(i))
					if traced {
						ack.Traces = append(ack.Traces, AckTrace{Msg: core.MessageID(i), Ctx: *m.Trace})
					}
				}
				add(fwd, "forward-batch traced=%v payload=%d entries=%d", traced, payload, n)
				add(ack, "ack-batch traced=%v ids=%d", traced, n)
			}
		}
	}
	add(&ForwardAckBatchBody{Busy: []BusyEntry{{ID: 4, Dim: 1, QueueLen: 9}}}, "ack-batch one busy")
	add(&ForwardAckBatchBody{IDs: []core.MessageID{1, 2}, Busy: []BusyEntry{{ID: 4}, {ID: 5, Dim: 3, QueueLen: 1 << 20}}},
		"ack-batch ids and busy")
	for _, c := range cases {
		if got := len(c.body.Encode()); got != c.body.EncodedSize() {
			t.Errorf("%s: EncodedSize %d, Encode wrote %d", c.name, c.body.EncodedSize(), got)
		}
		if raceEnabled {
			continue // race instrumentation allocates
		}
		if allocs := testing.AllocsPerRun(10, func() { _ = c.body.Encode() }); allocs != 1 {
			t.Errorf("%s: Encode made %.0f allocations, want 1", c.name, allocs)
		}
	}
}

func TestForwardAckBatchRoundtrip(t *testing.T) {
	b := &ForwardAckBatchBody{IDs: []core.MessageID{1, 2, 3, 1 << 50}}
	got, err := DecodeForwardAckBatch(b.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(got.IDs) != len(b.IDs) {
		t.Fatalf("ids: got %d want %d", len(got.IDs), len(b.IDs))
	}
	for i := range got.IDs {
		if got.IDs[i] != b.IDs[i] {
			t.Fatalf("id %d mismatch", i)
		}
	}
}

func TestDecodeBatchTruncated(t *testing.T) {
	b := &ForwardBatchBody{Entries: []ForwardEntry{{Dim: 1, Msg: testMsg(1)}}}
	data := b.Encode()
	for cut := 1; cut < len(data); cut += 3 {
		if _, err := DecodeForwardBatch(data[:cut]); err == nil {
			t.Fatalf("truncation at %d not detected", cut)
		}
	}
}

func TestForwardEntryEncodedSizeIsUpperBound(t *testing.T) {
	e := ForwardEntry{Dim: 3, Msg: testMsg(9)}
	enc := (&ForwardBatchBody{Entries: []ForwardEntry{e}}).Encode()
	// Per-entry bytes: total minus the u32 count prefix.
	if got := len(enc) - 4; got > e.EncodedSize() {
		t.Fatalf("EncodedSize %d underestimates actual %d", e.EncodedSize(), got)
	}
}

// TestWriterRejectsOversizeString is the regression test for the silent
// uint16 truncation in writer.str: over-long strings must panic with
// ErrStringTooLong instead of corrupting the frame.
func TestWriterRejectsOversizeString(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversize string encoded without panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrStringTooLong) {
			t.Fatalf("panic %v is not ErrStringTooLong", r)
		}
	}()
	long := make([]byte, 65536)
	(&ErrorBody{Text: string(long)}).Encode()
}

// TestWriterRejectsOversizeBytes: payloads that could never fit a frame must
// panic with ErrBodyTooLarge instead of encoding a length the reader side
// rejects (or a transport without frame checks silently corrupts).
func TestWriterRejectsOversizeBytes(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("oversize payload encoded without panic")
		}
		err, ok := r.(error)
		if !ok || !errors.Is(err, ErrBodyTooLarge) {
			t.Fatalf("panic %v is not ErrBodyTooLarge", r)
		}
	}()
	m := core.NewMessage([]float64{1}, make([]byte, MaxFrame+1))
	(&PublishBody{Msg: m}).Encode()
}

func TestBufPoolRoundtrip(t *testing.T) {
	b := GetBuf()
	if len(b.B) != 0 {
		t.Fatalf("pooled buf not reset: len %d", len(b.B))
	}
	b.B = append(b.B, 1, 2, 3)
	PutBuf(b)
	b2 := GetBuf()
	if len(b2.B) != 0 {
		t.Fatalf("reused buf not reset: len %d", len(b2.B))
	}
	PutBuf(b2)
}
