package client

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"bluedove/internal/chaos"
	"bluedove/internal/core"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// fakeDispatcher scripts dispatcher responses on a mesh.
type fakeDispatcher struct {
	mu         sync.Mutex
	subs       []*wire.SubscribeBody
	pubs       []*wire.PublishBody
	unsubs     []*wire.UnsubscribeBody
	queued     []wire.DeliverBody
	overloaded bool // reject acked publishes at admission control
}

func startFake(t *testing.T, mesh *transport.Mesh) *fakeDispatcher {
	t.Helper()
	f := &fakeDispatcher{}
	ep := mesh.Endpoint("disp")
	_, err := ep.Listen("disp", func(env *wire.Envelope) *wire.Envelope {
		f.mu.Lock()
		defer f.mu.Unlock()
		switch env.Kind {
		case wire.KindSubscribe:
			b, err := wire.DecodeSubscribe(env.Body)
			if err != nil {
				return nil
			}
			f.subs = append(f.subs, b)
			if b.Sub.Predicates[0].Low < 0 {
				return &wire.Envelope{Kind: wire.KindError,
					Body: (&wire.ErrorBody{Text: "bad predicate"}).Encode()}
			}
			return &wire.Envelope{Kind: wire.KindSubscribeAck,
				Body: (&wire.SubscribeAckBody{ID: 42, QueueHandle: uint64(b.Sub.Subscriber)}).Encode()}
		case wire.KindPublish:
			b, err := wire.DecodePublish(env.Body)
			if err == nil {
				f.pubs = append(f.pubs, b)
			}
			return nil
		case wire.KindPublishReq:
			b, err := wire.DecodePublish(env.Body)
			if err != nil {
				return nil
			}
			if f.overloaded {
				return &wire.Envelope{Kind: wire.KindError,
					Body: (&wire.ErrorBody{Text: wire.OverloadedPrefix + "dispatcher 1 has 64 unacked publications"}).Encode()}
			}
			f.pubs = append(f.pubs, b)
			return &wire.Envelope{Kind: wire.KindPublishAck,
				Body: (&wire.PublishAckBody{ID: b.Msg.ID}).Encode()}
		case wire.KindUnsubscribe:
			b, err := wire.DecodeUnsubscribe(env.Body)
			if err == nil {
				f.unsubs = append(f.unsubs, b)
			}
			return nil
		case wire.KindPoll:
			out := f.queued
			f.queued = nil
			return &wire.Envelope{Kind: wire.KindPollResponse,
				Body: (&wire.PollResponseBody{Deliveries: out}).Encode()}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Error("empty config accepted")
	}
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	if _, err := New(Config{
		Transport:      mesh.Endpoint("c"),
		DispatcherAddr: "disp",
		OnDeliver:      func(*core.Message, []core.SubscriptionID) {},
	}); err == nil {
		t.Error("OnDeliver without ListenAddr accepted")
	}
}

func TestSubscribePublishUnsubscribe(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	f := startFake(t, mesh)
	cl, err := New(Config{
		Transport:      mesh.Endpoint("c"),
		DispatcherAddr: "disp",
		Subscriber:     7,
	})
	if err != nil {
		t.Fatal(err)
	}
	id, err := cl.Subscribe([]core.Range{{Low: 1, High: 2}})
	if err != nil || id != 42 {
		t.Fatalf("Subscribe = %v, %v", id, err)
	}
	if cl.DeliverAddr() != "" {
		t.Error("indirect client has a deliver address")
	}
	if err := cl.Publish([]float64{5}, []byte("p")); err != nil {
		t.Fatal(err)
	}
	if err := cl.Unsubscribe(42); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		f.mu.Lock()
		done := len(f.pubs) == 1 && len(f.unsubs) == 1
		f.mu.Unlock()
		if done {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if len(f.subs) != 1 || f.subs[0].Sub.Subscriber != 7 || f.subs[0].DeliverAddr != "" {
		t.Fatalf("subs: %+v", f.subs)
	}
	if len(f.pubs) != 1 || string(f.pubs[0].Msg.Payload) != "p" {
		t.Fatalf("pubs: %+v", f.pubs)
	}
	if f.unsubs[0].ID != 42 {
		t.Fatalf("unsubs: %+v", f.unsubs)
	}
}

func TestSubscribeErrorSurfaced(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	startFake(t, mesh)
	cl, err := New(Config{Transport: mesh.Endpoint("c"), DispatcherAddr: "disp", Subscriber: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{{Low: -1, High: 2}}); err == nil {
		t.Error("rejected subscription did not error")
	}
}

func TestDirectDelivery(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	f := startFake(t, mesh)
	_ = f
	var mu sync.Mutex
	var got []*core.Message
	cl, err := New(Config{
		Transport:      mesh.Endpoint("c"),
		DispatcherAddr: "disp",
		Subscriber:     7,
		ListenAddr:     "c",
		OnDeliver: func(m *core.Message, ids []core.SubscriptionID) {
			mu.Lock()
			got = append(got, m)
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if cl.DeliverAddr() != "c" {
		t.Fatalf("DeliverAddr = %q", cl.DeliverAddr())
	}
	// A matcher pushes a delivery directly.
	m := core.NewMessage([]float64{1}, []byte("hello"))
	m.ID = 3
	body := (&wire.DeliverBatchBody{Deliveries: []wire.DeliverBody{
		{Subscriber: 7, Msg: m, SubIDs: []core.SubscriptionID{42}}}}).Encode()
	matcherEp := mesh.Endpoint("matcher")
	if _, err := matcherEp.Listen("matcher", func(*wire.Envelope) *wire.Envelope { return nil }); err != nil {
		t.Fatal(err)
	}
	if err := matcherEp.Send("c", &wire.Envelope{Kind: wire.KindDeliverBatch, From: 1, Body: body}); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		mu.Lock()
		n := len(got)
		mu.Unlock()
		if n == 1 {
			if got[0].ID != 3 || string(got[0].Payload) != "hello" {
				t.Fatalf("delivery: %+v", got[0])
			}
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("delivery never arrived")
}

func TestPoll(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	f := startFake(t, mesh)
	m := core.NewMessage([]float64{1}, nil)
	m.ID = 9
	f.mu.Lock()
	f.queued = []wire.DeliverBody{{Subscriber: 7, Msg: m}}
	f.mu.Unlock()
	cl, err := New(Config{Transport: mesh.Endpoint("c"), DispatcherAddr: "disp", Subscriber: 7})
	if err != nil {
		t.Fatal(err)
	}
	ds, err := cl.Poll(-5) // negative clamps to default
	if err != nil || len(ds) != 1 || ds[0].Msg.ID != 9 {
		t.Fatalf("Poll = %+v, %v", ds, err)
	}
	ds, err = cl.Poll(10)
	if err != nil || len(ds) != 0 {
		t.Fatalf("second Poll = %+v, %v", ds, err)
	}
}

func TestPublishOversizePayloadRejected(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	startFake(t, mesh)
	cl, err := New(Config{Transport: mesh.Endpoint("c"), DispatcherAddr: "disp", Subscriber: 7})
	if err != nil {
		t.Fatal(err)
	}
	err = cl.Publish([]float64{1}, make([]byte, wire.MaxFrame))
	if !errors.Is(err, wire.ErrBodyTooLarge) {
		t.Fatalf("oversize publish error = %v, want ErrBodyTooLarge", err)
	}
	// The client remains usable.
	if err := cl.Publish([]float64{1}, []byte("ok")); err != nil {
		t.Fatalf("publish after oversize rejection: %v", err)
	}
}

// TestPublishCleanErrorWhenDispatcherDies: a dispatcher that dies between
// subscribe and publish must surface as a prompt, classifiable error naming
// the dispatcher — never an indefinite block.
func TestPublishCleanErrorWhenDispatcherDies(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	startFake(t, mesh)
	cl, err := New(Config{Transport: mesh.Endpoint("c"), DispatcherAddr: "disp", Subscriber: 7})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Subscribe([]core.Range{{Low: 1, High: 2}}); err != nil {
		t.Fatal(err)
	}
	mesh.SetDown("disp", true)
	start := time.Now()
	err = cl.Publish([]float64{1}, []byte("orphan"))
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("publish against a dead dispatcher blocked for %v", elapsed)
	}
	if !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("publish error = %v, want ErrUnreachable", err)
	}
	if !strings.Contains(err.Error(), "dispatcher disp unreachable") {
		t.Fatalf("publish error %q does not name the dispatcher", err)
	}
}

// flakySend wraps a transport, failing the first n Sends with
// ErrUnreachable.
type flakySend struct {
	transport.Transport
	mu    sync.Mutex
	fails int
	sends int
}

func (f *flakySend) Send(addr string, env *wire.Envelope) error {
	f.mu.Lock()
	f.sends++
	fail := f.fails > 0
	if fail {
		f.fails--
	}
	f.mu.Unlock()
	if fail {
		return transport.ErrUnreachable
	}
	return f.Transport.Send(addr, env)
}

// TestPublishRetriesOnceOnUnreachable: one transient unreachable error is
// absorbed by a single retry; two in a row fail.
func TestPublishRetriesOnceOnUnreachable(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	fake := startFake(t, mesh)
	fl := &flakySend{Transport: mesh.Endpoint("c"), fails: 1}
	cl, err := New(Config{Transport: fl, DispatcherAddr: "disp", Subscriber: 7})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish([]float64{5}, []byte("retried")); err != nil {
		t.Fatalf("publish with one transient failure: %v", err)
	}
	waitForCond(t, func() bool {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		return len(fake.pubs) == 1
	})
	fl.mu.Lock()
	sends := fl.sends
	fl.mu.Unlock()
	if sends != 2 {
		t.Fatalf("sends = %d, want 2 (original + one retry)", sends)
	}

	fl.mu.Lock()
	fl.fails = 2
	fl.mu.Unlock()
	if err := cl.Publish([]float64{5}, nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("publish with persistent failure: err = %v, want ErrUnreachable", err)
	}
}

// countingTransport counts Send attempts passing through to the inner
// transport (which may itself be a chaos-wrapped endpoint).
type countingTransport struct {
	transport.Transport
	mu    sync.Mutex
	sends int
}

func (c *countingTransport) Send(addr string, env *wire.Envelope) error {
	c.mu.Lock()
	c.sends++
	c.mu.Unlock()
	return c.Transport.Send(addr, env)
}

func (c *countingTransport) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.sends
}

// TestPublishRetryBudgetConfigurable drives Publish through the chaos
// transport with the client→dispatcher link cut and pins the attempt count
// for a raised budget, a disabled one, and recovery after the link heals.
func TestPublishRetryBudgetConfigurable(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	fake := startFake(t, mesh)
	ctrl := chaos.NewController(1)
	defer ctrl.Close()
	ct := &countingTransport{Transport: chaos.Wrap(ctrl, mesh.Endpoint("c"), "c")}
	ctrl.Partition("c", "disp", true)

	cl, err := New(Config{
		Transport:      ct,
		DispatcherAddr: "disp",
		Subscriber:     7,
		PublishRetries: 3,
		PublishBackoff: 100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish([]float64{1}, nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("publish across cut link: err = %v, want ErrUnreachable", err)
	}
	if got := ct.count(); got != 4 {
		t.Fatalf("attempts = %d, want 4 (original + 3 retries)", got)
	}

	// A negative budget disables retries entirely.
	noRetry, err := New(Config{
		Transport:      ct,
		DispatcherAddr: "disp",
		Subscriber:     8,
		PublishRetries: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	before := ct.count()
	if err := noRetry.Publish([]float64{1}, nil); !errors.Is(err, transport.ErrUnreachable) {
		t.Fatalf("no-retry publish: err = %v, want ErrUnreachable", err)
	}
	if got := ct.count() - before; got != 1 {
		t.Fatalf("attempts = %d, want 1 (retries disabled)", got)
	}

	// Once the link heals, the same client publishes cleanly.
	ctrl.Heal()
	if err := cl.Publish([]float64{2}, []byte("after heal")); err != nil {
		t.Fatalf("publish after heal: %v", err)
	}
	waitForCond(t, func() bool {
		fake.mu.Lock()
		defer fake.mu.Unlock()
		return len(fake.pubs) == 1
	})
}

// TestPublishAckOverloaded: in AckPublish mode an admission-control
// rejection surfaces as ErrOverloaded and an admitted publish round-trips.
func TestPublishAckOverloaded(t *testing.T) {
	mesh := transport.NewMesh(0)
	defer mesh.Close()
	fake := startFake(t, mesh)
	cl, err := New(Config{
		Transport:      mesh.Endpoint("c"),
		DispatcherAddr: "disp",
		Subscriber:     7,
		AckPublish:     true,
		PublishTTL:     250 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := cl.Publish([]float64{1}, []byte("admitted")); err != nil {
		t.Fatalf("acked publish: %v", err)
	}
	fake.mu.Lock()
	if len(fake.pubs) != 1 {
		fake.mu.Unlock()
		t.Fatal("acked publish did not reach the dispatcher")
	}
	ttl := fake.pubs[0].Msg.TTL
	fake.overloaded = true
	fake.mu.Unlock()
	if want := int64(250 * time.Millisecond); ttl != want {
		t.Fatalf("published TTL = %d, want %d", ttl, want)
	}
	err = cl.Publish([]float64{1}, []byte("rejected"))
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("overloaded publish: err = %v, want ErrOverloaded", err)
	}
}

func waitForCond(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
