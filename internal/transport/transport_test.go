package transport

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/wire"
)

// transportUnderTest builds a fresh transport pair (or shared fabric) for
// each implementation.
type factory struct {
	name string
	// newNode returns a transport instance for one node with the given
	// label.
	newNode func(label string) Transport
	cleanup func()
}

func factories(t *testing.T) []factory {
	t.Helper()
	var out []factory

	mesh := NewMesh(0)
	out = append(out, factory{
		name:    "inproc",
		newNode: func(label string) Transport { return mesh.Endpoint(label) },
		cleanup: func() { mesh.Close() },
	})

	var tcps []*TCP
	out = append(out, factory{
		name: "tcp",
		newNode: func(string) Transport {
			tt := NewTCP()
			tcps = append(tcps, tt)
			return tt
		},
		cleanup: func() {
			for _, tt := range tcps {
				tt.Close()
			}
		},
	})
	return out
}

func TestSendDelivers(t *testing.T) {
	for _, f := range factories(t) {
		t.Run(f.name, func(t *testing.T) {
			defer f.cleanup()
			var got atomic.Int64
			server := f.newNode("server")
			addr, err := server.Listen(listenAddr(f.name, "server"), func(env *wire.Envelope) *wire.Envelope {
				if env.Kind == wire.KindForward {
					got.Add(1)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			client := f.newNode("client")
			if f.name == "inproc" {
				if _, err := client.Listen("client", func(*wire.Envelope) *wire.Envelope { return nil }); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 50; i++ {
				if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward, From: 1, Body: []byte{1}}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool { return got.Load() == 50 })
		})
	}
}

func TestRequestResponse(t *testing.T) {
	for _, f := range factories(t) {
		t.Run(f.name, func(t *testing.T) {
			defer f.cleanup()
			server := f.newNode("server")
			addr, err := server.Listen(listenAddr(f.name, "server"), func(env *wire.Envelope) *wire.Envelope {
				if env.Kind == wire.KindTableRequest {
					return &wire.Envelope{Kind: wire.KindTableResponse, From: 9, Body: append([]byte("tbl:"), env.Body...)}
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			client := f.newNode("client")
			if f.name == "inproc" {
				client.Listen("client", func(*wire.Envelope) *wire.Envelope { return nil })
			}
			resp, err := client.Request(addr, &wire.Envelope{Kind: wire.KindTableRequest, From: 1, Body: []byte("x")}, time.Second)
			if err != nil {
				t.Fatal(err)
			}
			if resp.Kind != wire.KindTableResponse || string(resp.Body) != "tbl:x" || resp.From != 9 {
				t.Fatalf("resp = %+v", resp)
			}
		})
	}
}

func TestRequestUnreachable(t *testing.T) {
	for _, f := range factories(t) {
		t.Run(f.name, func(t *testing.T) {
			defer f.cleanup()
			client := f.newNode("client")
			if f.name == "inproc" {
				client.Listen("client", func(*wire.Envelope) *wire.Envelope { return nil })
			}
			dest := "127.0.0.1:1" // nothing listens there
			if f.name == "inproc" {
				dest = "nowhere"
			}
			if _, err := client.Request(dest, &wire.Envelope{Kind: wire.KindPoll}, 200*time.Millisecond); !errors.Is(err, ErrUnreachable) {
				t.Errorf("request to unreachable destination: err = %v, want ErrUnreachable", err)
			}
			if err := client.Send(dest, &wire.Envelope{Kind: wire.KindForward}); !errors.Is(err, ErrUnreachable) {
				t.Errorf("send to unreachable destination: err = %v, want ErrUnreachable", err)
			}
		})
	}
}

func TestSendOrderingPreserved(t *testing.T) {
	for _, f := range factories(t) {
		t.Run(f.name, func(t *testing.T) {
			defer f.cleanup()
			var mu sync.Mutex
			var seq []byte
			server := f.newNode("server")
			addr, err := server.Listen(listenAddr(f.name, "server"), func(env *wire.Envelope) *wire.Envelope {
				mu.Lock()
				seq = append(seq, env.Body[0])
				mu.Unlock()
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			client := f.newNode("client")
			if f.name == "inproc" {
				client.Listen("client", func(*wire.Envelope) *wire.Envelope { return nil })
			}
			const n = 200
			for i := 0; i < n; i++ {
				if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward, Body: []byte{byte(i)}}); err != nil {
					t.Fatal(err)
				}
			}
			waitFor(t, func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(seq) == n
			})
			mu.Lock()
			defer mu.Unlock()
			for i := 0; i < n; i++ {
				if seq[i] != byte(i) {
					t.Fatalf("out of order at %d: %d", i, seq[i])
				}
			}
		})
	}
}

func TestClosedTransport(t *testing.T) {
	tt := NewTCP()
	addr, err := tt.Listen("127.0.0.1:0", func(*wire.Envelope) *wire.Envelope { return nil })
	if err != nil {
		t.Fatal(err)
	}
	if err := tt.Close(); err != nil {
		t.Fatal(err)
	}
	if err := tt.Send(addr, &wire.Envelope{Kind: wire.KindForward}); err == nil {
		t.Error("send on closed transport succeeded")
	}
	if _, err := tt.Listen("127.0.0.1:0", nil); err == nil {
		t.Error("listen on closed transport succeeded")
	}
	if err := tt.Close(); err != nil {
		t.Error("double close should be nil")
	}
}

func TestMeshPartition(t *testing.T) {
	mesh := NewMesh(0)
	defer mesh.Close()
	var got atomic.Int64
	a := mesh.Endpoint("a")
	a.Listen("a", func(*wire.Envelope) *wire.Envelope { return nil })
	b := mesh.Endpoint("b")
	b.Listen("b", func(*wire.Envelope) *wire.Envelope { got.Add(1); return nil })

	if err := a.Send("b", &wire.Envelope{Kind: wire.KindForward}); err != nil {
		t.Fatal(err)
	}
	mesh.PartitionBoth("a", "b", true)
	if err := a.Send("b", &wire.Envelope{Kind: wire.KindForward}); err == nil {
		t.Error("send across partition succeeded")
	}
	mesh.PartitionBoth("a", "b", false)
	if err := a.Send("b", &wire.Envelope{Kind: wire.KindForward}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 2 })
}

func TestMeshNodeDown(t *testing.T) {
	mesh := NewMesh(0)
	defer mesh.Close()
	a := mesh.Endpoint("a")
	a.Listen("a", func(*wire.Envelope) *wire.Envelope { return nil })
	b := mesh.Endpoint("b")
	b.Listen("b", func(env *wire.Envelope) *wire.Envelope {
		return &wire.Envelope{Kind: wire.KindError}
	})
	mesh.SetDown("b", true)
	if err := a.Send("b", &wire.Envelope{Kind: wire.KindForward}); err == nil {
		t.Error("send to downed node succeeded")
	}
	if _, err := a.Request("b", &wire.Envelope{Kind: wire.KindPoll}, 100*time.Millisecond); err == nil {
		t.Error("request to downed node succeeded")
	}
	mesh.SetDown("b", false)
	if _, err := a.Request("b", &wire.Envelope{Kind: wire.KindPoll}, time.Second); err != nil {
		t.Errorf("request after restore failed: %v", err)
	}
}

func TestMeshBytesAccounting(t *testing.T) {
	mesh := NewMesh(0)
	defer mesh.Close()
	a := mesh.Endpoint("a")
	a.Listen("a", func(*wire.Envelope) *wire.Envelope { return nil })
	b := mesh.Endpoint("b")
	b.Listen("b", func(*wire.Envelope) *wire.Envelope { return nil })
	env := &wire.Envelope{Kind: wire.KindForward, Body: make([]byte, 100)}
	if err := a.Send("b", env); err != nil {
		t.Fatal(err)
	}
	if got := mesh.BytesSent(); got != int64(wire.FrameSize(env)) {
		t.Errorf("BytesSent = %d, want %d", got, wire.FrameSize(env))
	}
}

func TestMeshDuplicateBind(t *testing.T) {
	mesh := NewMesh(0)
	defer mesh.Close()
	a := mesh.Endpoint("a")
	if _, err := a.Listen("a", func(*wire.Envelope) *wire.Envelope { return nil }); err != nil {
		t.Fatal(err)
	}
	if _, err := mesh.Endpoint("a2").Listen("a", nil); err == nil {
		t.Error("duplicate bind succeeded")
	}
	// Auto-assigned addresses.
	auto := mesh.Endpoint("")
	bound, err := auto.Listen(":0", func(*wire.Envelope) *wire.Envelope { return nil })
	if err != nil || bound == "" || bound == ":0" {
		t.Errorf("auto bind: %q, %v", bound, err)
	}
}

func TestTCPSendReconnects(t *testing.T) {
	server1 := NewTCP()
	var got atomic.Int64
	h := func(env *wire.Envelope) *wire.Envelope { got.Add(1); return nil }
	addr, err := server1.Listen("127.0.0.1:0", h)
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	defer client.Close()
	if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
	// Restart the server on the same port.
	server1.Close()
	server2 := NewTCP()
	defer server2.Close()
	if _, err := server2.Listen(addr, h); err != nil {
		t.Fatal(err)
	}
	// The pooled connection is stale. A write into the dead socket may
	// "succeed" locally before the RST arrives, so keep sending until a
	// message actually lands on the restarted server (each failed write
	// invalidates the pooled connection and the next Send redials).
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) && got.Load() < 2 {
		_ = client.Send(addr, &wire.Envelope{Kind: wire.KindForward})
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, func() bool { return got.Load() >= 2 })
}

// TestTCPIdleTimeoutClosesDeadPeer: an accepted connection that stops
// delivering frames must be dropped after IdleTimeout — a dead peer must not
// pin its read goroutine and buffers forever — while a connection with
// frames flowing (each frame re-arms the deadline) stays open, and a sender
// that lost its pooled connection to the reaper just redials on the next
// Send instead of surfacing an error.
func TestTCPIdleTimeoutClosesDeadPeer(t *testing.T) {
	server := NewTCP()
	server.IdleTimeout = 150 * time.Millisecond
	defer server.Close()
	var got atomic.Int64
	addr, err := server.Listen("127.0.0.1:0", func(env *wire.Envelope) *wire.Envelope {
		got.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// An active connection survives several idle windows: keep frames
	// flowing for 3x the timeout on one pooled connection.
	client := NewTCP()
	defer client.Close()
	for i := 0; i < 9; i++ {
		if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward}); err != nil {
			t.Fatalf("send %d on active connection: %v", i, err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	waitFor(t, func() bool { return got.Load() == 9 })
	if n := server.IdleClosed.Value(); n != 0 {
		t.Fatalf("active connection reaped %d times, want 0", n)
	}

	// A raw connection that never writes is reaped: the server closes it and
	// our read unblocks with EOF (not a local deadline — we set none).
	dead, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer dead.Close()
	if err := dead.SetReadDeadline(time.Now().Add(4 * time.Second)); err != nil {
		t.Fatal(err)
	}
	if _, err := dead.Read(make([]byte, 1)); err == nil {
		t.Fatal("idle connection still open after IdleTimeout")
	} else if ne := net.Error(nil); errors.As(err, &ne) && ne.Timeout() {
		t.Fatal("server never closed the idle connection")
	}
	waitFor(t, func() bool { return server.IdleClosed.Value() >= 1 })

	// The idle client's pooled connection was reaped too; a later Send must
	// transparently redial (stale-connection retry), not fail.
	deadline := time.Now().Add(4 * time.Second)
	for time.Now().Before(deadline) && got.Load() < 10 {
		_ = client.Send(addr, &wire.Envelope{Kind: wire.KindForward})
		time.Sleep(20 * time.Millisecond)
	}
	waitFor(t, func() bool { return got.Load() >= 10 })
}

func TestTCPRequestTimeout(t *testing.T) {
	server := NewTCP()
	defer server.Close()
	addr, err := server.Listen("127.0.0.1:0", func(env *wire.Envelope) *wire.Envelope {
		time.Sleep(500 * time.Millisecond)
		return &wire.Envelope{Kind: wire.KindError}
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	defer client.Close()
	start := time.Now()
	if _, err := client.Request(addr, &wire.Envelope{Kind: wire.KindPoll}, 100*time.Millisecond); err == nil {
		t.Error("expected timeout")
	}
	if time.Since(start) > 400*time.Millisecond {
		t.Error("timeout not honored")
	}
}

func TestTCPNoResponseHandler(t *testing.T) {
	server := NewTCP()
	defer server.Close()
	// Handler returns nil and closes the connection implicitly only when
	// the client disconnects; a Request against it should error out at the
	// deadline rather than hang.
	addr, err := server.Listen("127.0.0.1:0", func(env *wire.Envelope) *wire.Envelope { return nil })
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	defer client.Close()
	if _, err := client.Request(addr, &wire.Envelope{Kind: wire.KindPoll}, 150*time.Millisecond); err == nil {
		t.Error("request with no response should fail")
	}
}

// TestTCPErrUnreachableClassification pins down which failures callers can
// classify with errors.Is(err, ErrUnreachable): dial failures and peers that
// hang up without answering are unreachable; a slow peer is a timeout, not
// unreachable.
func TestTCPErrUnreachableClassification(t *testing.T) {
	client := NewTCP()
	defer client.Close()

	// Nothing listening: dial failure.
	if _, err := client.Request("127.0.0.1:1", &wire.Envelope{Kind: wire.KindPoll}, 200*time.Millisecond); !errors.Is(err, ErrUnreachable) {
		t.Errorf("dial failure: err = %v, want ErrUnreachable", err)
	}

	// Peer accepts, then hangs up without a response frame: EOF.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			conn.Close()
		}
	}()
	if _, err := client.Request(ln.Addr().String(), &wire.Envelope{Kind: wire.KindPoll}, time.Second); !errors.Is(err, ErrUnreachable) {
		t.Errorf("hangup without response: err = %v, want ErrUnreachable", err)
	}

	// Peer is reachable but slow: a timeout, deliberately NOT unreachable.
	server := NewTCP()
	defer server.Close()
	slow, err := server.Listen("127.0.0.1:0", func(*wire.Envelope) *wire.Envelope {
		time.Sleep(500 * time.Millisecond)
		return &wire.Envelope{Kind: wire.KindError}
	})
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Request(slow, &wire.Envelope{Kind: wire.KindPoll}, 100*time.Millisecond)
	if err == nil {
		t.Fatal("slow peer did not time out")
	}
	if errors.Is(err, ErrUnreachable) {
		t.Errorf("timeout misclassified as unreachable: %v", err)
	}
	var ne net.Error
	if !errors.As(err, &ne) || !ne.Timeout() {
		t.Errorf("timeout not surfaced as net.Error: %v", err)
	}
}

// TestMeshErrUnreachableClassification: the in-process mesh reports downed
// nodes and cut links through the same sentinel, and a full inbound queue
// through ErrOverloaded — backpressure, not death.
func TestMeshErrUnreachableClassification(t *testing.T) {
	mesh := NewMesh(0)
	defer mesh.Close()
	release := make(chan struct{})
	defer close(release) // runs before mesh.Close, which drains the queue
	a, b := mesh.Endpoint("a"), mesh.Endpoint("b")
	if _, err := b.Listen("b", func(*wire.Envelope) *wire.Envelope { <-release; return nil }); err != nil {
		t.Fatal(err)
	}
	mesh.SetDown("b", true)
	if err := a.Send("b", &wire.Envelope{Kind: wire.KindForward}); !errors.Is(err, ErrUnreachable) {
		t.Errorf("send to downed node: err = %v, want ErrUnreachable", err)
	}
	mesh.SetDown("b", false)
	mesh.Partition("a", "b", true)
	if _, err := a.Request("b", &wire.Envelope{Kind: wire.KindPoll}, 100*time.Millisecond); !errors.Is(err, ErrUnreachable) {
		t.Errorf("request across cut link: err = %v, want ErrUnreachable", err)
	}
	mesh.Partition("a", "b", false)

	// b's handler blocks on its first frame, so its 4096-slot queue fills
	// behind it and the next send is refused.
	var err error
	for i := 0; i < 4096+2 && err == nil; i++ {
		err = a.Send("b", &wire.Envelope{Kind: wire.KindForward})
	}
	if !errors.Is(err, ErrOverloaded) {
		t.Errorf("send into a full queue: err = %v, want ErrOverloaded", err)
	}
	if errors.Is(err, ErrUnreachable) {
		t.Errorf("full queue misclassified as unreachable: %v", err)
	}
}

func listenAddr(impl, label string) string {
	if impl == "tcp" {
		return "127.0.0.1:0"
	}
	return label
}

func waitFor(t *testing.T, cond func() bool) {
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

func BenchmarkMeshSend(b *testing.B) {
	mesh := NewMesh(0)
	defer mesh.Close()
	a := mesh.Endpoint("a")
	a.Listen("a", func(*wire.Envelope) *wire.Envelope { return nil })
	srv := mesh.Endpoint("b")
	var count atomic.Int64
	srv.Listen("b", func(*wire.Envelope) *wire.Envelope { count.Add(1); return nil })
	env := &wire.Envelope{Kind: wire.KindForward, Body: make([]byte, 64)}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for a.Send("b", env) != nil {
			// inbound queue full: let the drain goroutine catch up
			time.Sleep(time.Microsecond)
		}
	}
	_ = fmt.Sprint(count.Load())
}

// TestTCPWriteCoalescing verifies that coalesced frames are all delivered
// (by the background flusher), and that a Close pushes out any frames still
// buffered.
func TestTCPWriteCoalescing(t *testing.T) {
	server := NewTCP()
	defer server.Close()
	var got atomic.Int64
	addr, err := server.Listen("127.0.0.1:0", func(env *wire.Envelope) *wire.Envelope {
		if env.Kind == wire.KindForward {
			got.Add(1)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	for i := 0; i < 200; i++ {
		if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward, From: 1, Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, func() bool { return got.Load() == 200 })

	// A final burst immediately followed by Close must not lose frames:
	// Close flushes before tearing down.
	for i := 0; i < 50; i++ {
		if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward, From: 1, Body: []byte{byte(i)}}); err != nil {
			t.Fatal(err)
		}
	}
	client.Close()
	waitFor(t, func() bool { return got.Load() == 250 })
}

// TestTCPFlushOnIdle: a lone frame leaves as soon as the flusher is free,
// with no timer to wait out.
func TestTCPFlushOnIdle(t *testing.T) {
	server := NewTCP()
	defer server.Close()
	var got atomic.Int64
	addr, err := server.Listen("127.0.0.1:0", func(*wire.Envelope) *wire.Envelope {
		got.Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	client := NewTCP()
	defer client.Close()
	if err := client.Send(addr, &wire.Envelope{Kind: wire.KindForward, From: 1, Body: []byte{1}}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, func() bool { return got.Load() == 1 })
}

// TestTCPCoalescingConcurrentSenders: many goroutines sharing one coalescing
// transport race Send against the flusher's dirty-list swap; every frame
// must arrive, in order per (sender, destination).
func TestTCPCoalescingConcurrentSenders(t *testing.T) {
	const senders, frames, dests = 8, 2000, 2
	var mu sync.Mutex
	var next [dests][senders]uint32 // next sequence number expected
	for d := range next {
		for s := range next[d] {
			next[d][s] = uint32(d) // sender frame i goes to destination i%dests
		}
	}
	var got atomic.Int64
	var addrs [dests]string
	for d := 0; d < dests; d++ {
		server := NewTCP()
		defer server.Close()
		addr, err := server.Listen("127.0.0.1:0", func(env *wire.Envelope) *wire.Envelope {
			seq := binary.LittleEndian.Uint32(env.Body)
			mu.Lock()
			if want := next[d][env.From]; seq != want {
				t.Errorf("dest %d sender %d: got seq %d, want %d", d, env.From, seq, want)
			}
			next[d][env.From] = seq + dests
			mu.Unlock()
			got.Add(1)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		addrs[d] = addr
	}

	client := NewTCP()
	defer client.Close()
	var wg sync.WaitGroup
	for s := 0; s < senders; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < frames; i++ {
				body := binary.LittleEndian.AppendUint32(nil, uint32(i))
				if err := client.Send(addrs[i%dests], &wire.Envelope{Kind: wire.KindForward, From: core.NodeID(s), Body: body}); err != nil {
					t.Errorf("sender %d frame %d: %v", s, i, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	waitFor(t, func() bool { return got.Load() == senders*frames })
}

// TestTCPFlushPassAllocatesNothing pins the flusher's cost per wake-up:
// marking a connection dirty and running a pass trade the queue's backing
// array with the flusher's batch instead of allocating.
func TestTCPFlushPassAllocatesNothing(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		io.Copy(io.Discard, conn)
	}()
	tt := NewTCP() // no Send, so no flusher goroutine: the test runs the passes
	defer tt.Close()
	sc, err := tt.getSendConn(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	frame := make([]byte, 64)
	var scs []*sendConn
	allocs := testing.AllocsPerRun(1000, func() {
		sc.mu.Lock()
		sc.bw.Write(frame)
		sc.dirty = true
		sc.mu.Unlock()
		tt.dirty.Push(sc)
		scs, _ = tt.dirty.Take(scs, 1)
		for _, sc := range scs {
			sc.flush()
		}
	})
	if allocs != 0 {
		t.Errorf("mark + flush pass: %v allocs, want 0", allocs)
	}
	if sc.conn == nil {
		t.Fatal("flush failed and dropped the connection")
	}
}

// TestSendCopies pins the Copying capability: TCP copies bodies on Send (so
// pooled buffers may be recycled), the mesh does not (it queues envelopes by
// reference).
func TestSendCopies(t *testing.T) {
	tcp := NewTCP()
	defer tcp.Close()
	if !SendCopies(tcp) {
		t.Error("TCP transport should report SendCopies")
	}
	mesh := NewMesh(0)
	defer mesh.Close()
	if SendCopies(mesh.Endpoint("a")) {
		t.Error("mesh endpoint must not report SendCopies: it retains bodies")
	}
}
