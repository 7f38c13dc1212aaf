package wire

import (
	"encoding/binary"
	"testing"

	"bluedove/internal/core"
)

func TestPublishAckRoundTrip(t *testing.T) {
	in := &PublishAckBody{ID: 424242}
	out, err := DecodePublishAck(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if out.ID != in.ID {
		t.Fatalf("round trip: got %d, want %d", out.ID, in.ID)
	}
}

// TestForwardAckBatchBusyRoundTrip covers the busy-aware batch ack: a batch
// that straddles a full queue acks the accepted prefix and lists the
// rejected items with per-item dimension and backlog.
func TestForwardAckBatchBusyRoundTrip(t *testing.T) {
	in := &ForwardAckBatchBody{
		IDs: []core.MessageID{1, 2, 3},
		Busy: []BusyEntry{
			{ID: 4, Dim: 0, QueueLen: 64},
			{ID: 5, Dim: 3, QueueLen: 65},
		},
	}
	out, err := DecodeForwardAckBatch(in.Encode())
	if err != nil {
		t.Fatal(err)
	}
	if len(out.IDs) != 3 || out.IDs[2] != 3 {
		t.Fatalf("acked IDs: got %v, want %v", out.IDs, in.IDs)
	}
	if len(out.Busy) != 2 {
		t.Fatalf("busy entries: got %d, want 2", len(out.Busy))
	}
	for i := range in.Busy {
		if out.Busy[i] != in.Busy[i] {
			t.Fatalf("busy[%d]: got %+v, want %+v", i, out.Busy[i], in.Busy[i])
		}
	}
}

// TestForwardAckBatchBusyCountGuard: a frame claiming an implausible busy
// count must be rejected before the decoder sizes an allocation from it.
func TestForwardAckBatchBusyCountGuard(t *testing.T) {
	data := (&ForwardAckBatchBody{IDs: []core.MessageID{1}}).Encode()
	// The busy count is the final u32; overwrite it in place.
	binary.BigEndian.PutUint32(data[len(data)-4:], uint32(maxListLen+1))
	if _, err := DecodeForwardAckBatch(data); err == nil {
		t.Fatalf("decoder accepted busy count %d", maxListLen+1)
	}
}

// TestBusyEncodeZeroAlloc: a matcher answers a forward its full stage
// rejected with a ForwardAckBatch holding one Busy entry, sent from its
// receive path while it is already overloaded — encoding that reply into a
// pooled buffer must not add heap allocations to that path.
func TestBusyEncodeZeroAlloc(t *testing.T) {
	body := &ForwardAckBatchBody{Busy: []BusyEntry{{ID: 77, Dim: 2, QueueLen: 4}}}
	// A preallocated scratch slice rather than the frame pool: sync.Pool
	// randomly drops items under the race detector, which would count as an
	// allocation here without saying anything about the encoder.
	buf := make([]byte, 0, 64)
	allocs := testing.AllocsPerRun(100, func() {
		buf = body.AppendTo(buf[:0])
	})
	if allocs != 0 {
		t.Fatalf("busy reply encode: %.1f allocs/frame, want 0", allocs)
	}
}
