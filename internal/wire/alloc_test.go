package wire

import (
	"testing"

	"bluedove/internal/core"
)

// TestForwardBatchEncodeUntracedZeroAlloc pins the PR-1 forward-path
// guarantee with the trace-capable codec compiled in: encoding a pooled
// batch of untraced messages (Trace == nil — tracing disabled or sampled
// out) performs zero heap allocations.
func TestForwardBatchEncodeUntracedZeroAlloc(t *testing.T) {
	const batch = 64
	body := benchBatch(batch)
	for _, e := range body.Entries {
		if e.Msg.Trace != nil {
			t.Fatal("benchBatch messages must be untraced")
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf := GetBuf()
		buf.B = body.AppendTo(buf.B)
		PutBuf(buf)
	})
	if raceEnabled {
		t.Skipf("untraced encode made %.1f allocs/frame: under -race sync.Pool drops pooled buffers, so the 0-alloc pin only holds without it", allocs)
	}
	if allocs != 0 {
		t.Fatalf("untraced %d-msg batch encode: %.1f allocs/frame, want 0", batch, allocs)
	}
}

// TestForwardBatchEncodeTracedZeroAlloc checks the traced path too: the
// trace context rides inline in the frame, so even full sampling adds bytes
// but no allocations to the pooled encode.
func TestForwardBatchEncodeTracedZeroAlloc(t *testing.T) {
	const batch = 64
	body := benchBatch(batch)
	for i, e := range body.Entries {
		tr := &core.TraceCtx{ID: core.TraceID(i + 1), Dispatcher: 1, Matcher: 2, Dim: i % 4}
		tr.Stamp(core.HopPublish, int64(i+1))
		tr.Stamp(core.HopIngest, int64(i+2))
		tr.Stamp(core.HopForward, int64(i+3))
		e.Msg.Trace = tr
	}
	allocs := testing.AllocsPerRun(100, func() {
		buf := GetBuf()
		buf.B = body.AppendTo(buf.B)
		PutBuf(buf)
	})
	if raceEnabled {
		t.Skipf("traced encode made %.1f allocs/frame: under -race sync.Pool drops pooled buffers, so the 0-alloc pin only holds without it", allocs)
	}
	if allocs != 0 {
		t.Fatalf("traced %d-msg batch encode: %.1f allocs/frame, want 0", batch, allocs)
	}
}
