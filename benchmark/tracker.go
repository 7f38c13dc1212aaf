package main

import (
	"encoding/binary"
	"slices"
	"sync/atomic"
	"time"

	"bluedove/internal/core"
)

const (
	payloadSize = 64
	payloadTag  = 0xB1DE_D07E_BE7C_4A11
	slotRing    = 1 << 16
)

// nowNs is the benchmark's clock: wall nanoseconds, the same clock the
// nodes stamp trace hops with, so benchmark-side and in-program timestamps
// subtract meaningfully.
func nowNs() int64 { return time.Now().UnixNano() }

// pubRec is the life of one publication, indexed by sequence number. due is
// when the schedule said it should be sent (equal to sent in a closed loop),
// sent and ret bracket the call into Client.Publish, done is when the last
// expected receiver was called back (0 until then).
type pubRec struct {
	due, sent, ret int64
	done           atomic.Int64
	refused        bool
}

// slot is the verification state of one in-flight publication. Slots form a
// ring indexed by sequence: a publication still incomplete when its slot is
// reused simply stays not-done and is counted missing.
type slot struct {
	owner     atomic.Uint64 // sequence+1 holding the slot
	remaining atomic.Int32
	seen      [maxTargets / 64]atomic.Uint64
	gen       int32
}

// incorrect counts deliveries the oracle rejects. Any of them fails the run.
type incorrect struct {
	wrong, spurious, duplicate, malformed atomic.Int64
}

func (c *incorrect) total() int64 {
	return c.wrong.Load() + c.spurious.Load() + c.duplicate.Load() + c.malformed.Load()
}

// tracker publishes sequence-stamped publications and checks every delivery
// callback against the oracle.
type tracker struct {
	pool  []poolMsg
	recs  []pubRec
	slots []slot
	next  atomic.Uint64

	// checking is off during set-up probes, when subscriptions may still be
	// landing and a short delivery is a reason to retry, not a failure.
	checking atomic.Bool
	bad      incorrect
	stale    atomic.Int64 // arrived after the slot was reused (already counted missing)
	// callbacks counts every delivery callback, verified or not.
	callbacks atomic.Int64
	// atLeastOnce marks a workload whose cluster retransmits unacked
	// forwards (Options.Persistent): a repeated delivery is then within the
	// guarantee and is counted as redelivered, not as incorrect.
	atLeastOnce bool
	redelivered atomic.Int64

	// tokens[g] bounds generator g's outstanding publications in a closed
	// loop: the generator sends to acquire, a completion receives to
	// release. An open loop never acquires, so its releases find it empty.
	tokens []chan struct{}

	trace *traceRec // nil on an untraced run
}

func newTracker(pool []poolMsg, capacity, gens int, trace *traceRec) *tracker {
	t := &tracker{pool: pool, recs: make([]pubRec, capacity), slots: make([]slot, slotRing), trace: trace}
	for g := 0; g < gens; g++ {
		t.tokens = append(t.tokens, make(chan struct{}, maxOutstanding))
	}
	return t
}

// publisher sends one publication into the system.
type publisher func(attrs []float64, payload []byte) error

// publish stamps and sends the next publication for generator g. It reports
// false when the record space is exhausted.
func (t *tracker) publish(g int, pub publisher, payload []byte, due int64) bool {
	seq := t.next.Add(1) - 1
	if seq >= uint64(len(t.recs)) {
		return false
	}
	pm := &t.pool[seq%uint64(len(t.pool))]
	sl := &t.slots[seq%slotRing]
	sl.remaining.Store(int32(len(pm.targets)))
	for i := range sl.seen {
		sl.seen[i].Store(0)
	}
	sl.gen = int32(g)
	sl.owner.Store(seq + 1)

	rec := &t.recs[seq]
	now := nowNs()
	if due == 0 {
		due = now
	}
	rec.due, rec.sent = due, now
	binary.LittleEndian.PutUint64(payload[0:], seq)
	binary.LittleEndian.PutUint64(payload[8:], uint64(due))
	binary.LittleEndian.PutUint64(payload[16:], uint64(now))
	binary.LittleEndian.PutUint64(payload[24:], payloadTag)
	err := pub(pm.attrs, payload)
	rec.ret = nowNs()
	if t.trace != nil {
		t.trace.span("client.publish", seq, rec.sent, rec.ret)
	}
	if err != nil {
		rec.refused = true
		sl.owner.Store(0)
		t.release(g)
	}
	return true
}

func (t *tracker) release(g int) {
	select {
	case <-t.tokens[g]:
	default:
	}
}

// deliver is the callback every receiver funnels into: it checks the
// delivery against the oracle and, on the last expected one, completes the
// publication.
func (t *tracker) deliver(recv int32, msg *core.Message, ids []core.SubscriptionID) {
	now := nowNs()
	t.callbacks.Add(1)
	p := msg.Payload
	if len(p) != payloadSize || binary.LittleEndian.Uint64(p[24:]) != payloadTag {
		t.reject(&t.bad.malformed)
		return
	}
	seq := binary.LittleEndian.Uint64(p[0:])
	if seq >= t.next.Load() {
		t.reject(&t.bad.malformed)
		return
	}
	pm := &t.pool[seq%uint64(len(t.pool))]
	k, ok := slices.BinarySearchFunc(pm.targets, recv, func(tg target, r int32) int { return int(tg.recv - r) })
	if !ok {
		t.reject(&t.bad.spurious)
		return
	}
	slices.Sort(ids)
	if !slices.Equal(ids, pm.targets[k].ids) {
		t.reject(&t.bad.wrong)
		return
	}
	sl := &t.slots[seq%slotRing]
	if sl.owner.Load() != seq+1 {
		t.stale.Add(1)
		return
	}
	bit := uint64(1) << (k % 64)
	if sl.seen[k/64].Or(bit)&bit != 0 {
		if t.atLeastOnce {
			t.redelivered.Add(1)
		} else {
			t.reject(&t.bad.duplicate)
		}
		return
	}
	last := sl.remaining.Add(-1) == 0
	if last {
		t.recs[seq].done.Store(now)
		t.release(int(sl.gen))
	}
	if t.trace != nil {
		t.trace.delivery(seq, int64(binary.LittleEndian.Uint64(p[8:])), int64(binary.LittleEndian.Uint64(p[16:])), now, msg.Trace, last)
	}
}

func (t *tracker) reject(c *atomic.Int64) {
	if t.checking.Load() {
		c.Add(1)
	}
}

// waitDone blocks until every publication in [from, to) is complete or
// refused, or the deadline passes; it reports whether all completed.
func (t *tracker) waitDone(from, to uint64, deadline time.Time) bool {
	for seq := from; seq < to; seq++ {
		r := &t.recs[seq]
		for r.done.Load() == 0 && !r.refused {
			if time.Now().After(deadline) {
				return false
			}
			time.Sleep(200 * time.Microsecond)
		}
	}
	return true
}
