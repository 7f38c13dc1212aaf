package transport

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"bluedove/internal/metrics"
	"bluedove/internal/wire"
)

// TCP is the production transport: length-framed envelopes over TCP.
// One-way sends share a persistent, automatically redialed connection per
// destination; requests use short-lived connections so responses need no
// correlation IDs (table pulls and subscribes are rare compared to
// forwarding traffic).
//
// One-way writes are coalesced by group commit: Send buffers the frame in
// the connection's bufio.Writer and wakes a background flusher, which
// flushes the connections dirtied since its last pass as soon as it is
// free. An idle path pays one goroutine hand-off, and frames sent while a
// pass is writing leave together in the next one, one syscall per
// destination.
type TCP struct {
	// DialTimeout bounds connection establishment (default 2s).
	DialTimeout time.Duration
	// Deprecated: has no effect; writes are always coalesced and flushed
	// as soon as the flusher is free.
	FlushInterval time.Duration
	// IdleTimeout, when positive, closes accepted server-side connections
	// that deliver no frame for this long — without it a dead peer pins its
	// read goroutine and buffers forever, which matters once an edge holds
	// many thousands of sessions. A peer finding its connection gone sees
	// the usual ErrUnreachable on its next send (and redials); deadline
	// errors never leak into Request's timeout classification, which applies
	// only to the short-lived request connections this setting does not
	// touch. Zero (the default) keeps accepted connections open until the
	// peer closes them. Set before the first Listen.
	IdleTimeout time.Duration

	mu        sync.Mutex
	listeners []net.Listener
	conns     map[string]*sendConn
	accepted  map[net.Conn]struct{}
	closed    bool
	wg        sync.WaitGroup

	flusherOnce sync.Once
	flusherStop chan struct{}
	// flushWake has one slot: a Send that dirties a connection posts to it
	// without blocking, so any number of sends during a pass collapse into
	// one more pass.
	flushWake chan struct{}
	dirtyMu   sync.Mutex
	dirty     []*sendConn // connections dirtied since the flusher's last swap

	// FramesSent / BytesSent count one-way frames written (including
	// buffered frames awaiting a coalesced flush); FramesReceived /
	// BytesReceived count inbound frames handled. Byte figures are frame
	// bodies, the dominant term — headers are a fixed few bytes per frame.
	FramesSent     metrics.Counter
	BytesSent      metrics.Counter
	FramesReceived metrics.Counter
	BytesReceived  metrics.Counter
	// IdleClosed counts accepted connections dropped by IdleTimeout.
	IdleClosed metrics.Counter
}

type sendConn struct {
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	// dirty marks buffered frames awaiting a flush. The Send that sets it
	// puts the connection on TCP.dirty, so the flusher's next pass finds it.
	dirty bool
}

// NewTCP returns an unconnected TCP transport.
func NewTCP() *TCP {
	return &TCP{
		DialTimeout: 2 * time.Second,
		conns:       make(map[string]*sendConn),
		accepted:    make(map[net.Conn]struct{}),
		flusherStop: make(chan struct{}),
		flushWake:   make(chan struct{}, 1),
	}
}

// SendCopies implements Copying: Send writes env.Body into the connection's
// buffered writer before returning, so callers may recycle the body.
func (t *TCP) SendCopies() bool { return true }

// Listen implements Transport: it serves h on addr ("host:port"; ":0"
// chooses a free port) and returns the bound address.
func (t *TCP) Listen(addr string, h Handler) (string, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return "", ErrClosed
	}
	t.mu.Unlock()
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	t.mu.Lock()
	t.listeners = append(t.listeners, ln)
	t.mu.Unlock()
	t.wg.Add(1)
	go t.acceptLoop(ln, h)
	return ln.Addr().String(), nil
}

func (t *TCP) acceptLoop(ln net.Listener, h Handler) {
	defer t.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		t.wg.Add(1)
		go t.serveConn(conn, h)
	}
}

// serveConn handles one inbound connection: frames are processed in order;
// request kinds produce exactly one response frame each.
func (t *TCP) serveConn(conn net.Conn, h Handler) {
	defer t.wg.Done()
	defer conn.Close()
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.accepted[conn] = struct{}{}
	t.mu.Unlock()
	defer func() {
		t.mu.Lock()
		delete(t.accepted, conn)
		t.mu.Unlock()
	}()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		if t.IdleTimeout > 0 {
			if err := conn.SetReadDeadline(time.Now().Add(t.IdleTimeout)); err != nil {
				return
			}
		}
		env, err := wire.ReadFrame(br)
		if err != nil {
			if isTimeout(err) {
				t.IdleClosed.Add(1)
			}
			return // EOF, idle timeout or protocol error: drop the connection
		}
		t.FramesReceived.Add(1)
		t.BytesReceived.Add(int64(len(env.Body)))
		if resp := h(env); resp != nil {
			if err := wire.WriteFrame(bw, resp); err != nil {
				return
			}
		}
	}
}

// getSendConn returns (dialing if necessary) the pooled connection to addr.
func (t *TCP) getSendConn(addr string) (*sendConn, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	sc, ok := t.conns[addr]
	if !ok {
		sc = &sendConn{}
		t.conns[addr] = sc
	}
	t.mu.Unlock()

	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.conn == nil {
		conn, err := net.DialTimeout("tcp", addr, t.DialTimeout)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
		}
		sc.conn = conn
		sc.bw = bufio.NewWriter(conn)
	}
	return sc, nil
}

// Send implements Transport with one redial retry on a stale pooled
// connection. The frame is left in the connection's write buffer for the
// background flusher.
func (t *TCP) Send(addr string, env *wire.Envelope) error {
	t.flusherOnce.Do(func() {
		t.mu.Lock()
		if !t.closed {
			t.wg.Add(1)
			go t.flushLoop()
		}
		t.mu.Unlock()
	})
	for attempt := 0; attempt < 2; attempt++ {
		sc, err := t.getSendConn(addr)
		if err != nil {
			return err
		}
		sc.mu.Lock()
		if sc.conn == nil {
			sc.mu.Unlock()
			continue
		}
		err = wire.WriteFrameBuffered(sc.bw, env)
		if err != nil {
			sc.conn.Close()
			sc.conn = nil
			sc.dirty = false
			sc.mu.Unlock()
			continue
		}
		dirtied := !sc.dirty
		sc.dirty = true
		sc.mu.Unlock()
		if dirtied {
			t.markDirty(sc)
		}
		t.FramesSent.Add(1)
		t.BytesSent.Add(int64(len(env.Body)))
		return nil
	}
	return fmt.Errorf("%w: send to %s failed after retry", ErrUnreachable, addr)
}

// markDirty queues sc for the flusher's next pass and wakes it.
func (t *TCP) markDirty(sc *sendConn) {
	t.dirtyMu.Lock()
	t.dirty = append(t.dirty, sc)
	t.dirtyMu.Unlock()
	select {
	case t.flushWake <- struct{}{}:
	default: // a wake-up is already pending
	}
}

// flushLoop is the write coalescer (group commit): it sleeps until a Send
// dirties a connection, then runs one pass. Sends that arrive during a pass
// fill the other list and leave together in the next one.
func (t *TCP) flushLoop() {
	defer t.wg.Done()
	var spare []*sendConn
	for {
		select {
		case <-t.flusherStop:
			return
		case <-t.flushWake:
			spare = t.flushDirty(spare)
		}
	}
}

// flushDirty is one flusher pass: it swaps spare in as the dirty list,
// flushes exactly the connections on the old one, and returns that list
// emptied to serve as the next spare. The two lists trade places every
// pass, so a pass allocates nothing and costs O(dirty connections).
func (t *TCP) flushDirty(spare []*sendConn) []*sendConn {
	t.dirtyMu.Lock()
	scs := t.dirty
	t.dirty = spare
	t.dirtyMu.Unlock()
	for _, sc := range scs {
		sc.flush()
	}
	clear(scs) // drop the references until the slots are reused
	return scs[:0]
}

// flushAll flushes every dirty pooled connection, including any on a list
// the flusher has swapped out but not yet reached; Close uses it.
func (t *TCP) flushAll() {
	t.mu.Lock()
	scs := make([]*sendConn, 0, len(t.conns))
	for _, sc := range t.conns {
		scs = append(scs, sc)
	}
	t.mu.Unlock()
	for _, sc := range scs {
		sc.flush()
	}
}

// flush writes out sc's buffered frames, if any; a failed flush drops the
// connection so the next Send redials.
func (sc *sendConn) flush() {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if sc.dirty && sc.conn != nil {
		if err := sc.bw.Flush(); err != nil {
			sc.conn.Close()
			sc.conn = nil
		}
	}
	sc.dirty = false
}

// Request implements Transport over a short-lived connection.
func (t *TCP) Request(addr string, env *wire.Envelope, timeout time.Duration) (*wire.Envelope, error) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil, ErrClosed
	}
	t.mu.Unlock()
	if timeout <= 0 {
		timeout = 5 * time.Second
	}
	conn, err := net.DialTimeout("tcp", addr, t.DialTimeout)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrUnreachable, err)
	}
	defer conn.Close()
	deadline := time.Now().Add(timeout)
	if err := conn.SetDeadline(deadline); err != nil {
		return nil, err
	}
	if err := wire.WriteFrame(conn, env); err != nil {
		if isTimeout(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: write to %s: %v", ErrUnreachable, addr, err)
	}
	resp, err := wire.ReadFrame(bufio.NewReader(conn))
	if err != nil {
		if errors.Is(err, io.EOF) {
			// The peer closed without answering: to the caller that is the
			// same as never having reached it.
			return nil, fmt.Errorf("%w: no response from %s for %v", ErrUnreachable, addr, env.Kind)
		}
		if isTimeout(err) {
			return nil, err
		}
		return nil, fmt.Errorf("%w: read from %s: %v", ErrUnreachable, addr, err)
	}
	return resp, nil
}

// isTimeout reports whether err is a network timeout (deadline exceeded).
// Timeouts stay unwrapped so callers can tell a slow peer from a dead one.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}

// Close implements Transport: it flushes coalesced writes, stops all
// listeners and closes pooled connections.
func (t *TCP) Close() error {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return nil
	}
	t.closed = true
	t.mu.Unlock()
	// Push out buffered frames before tearing connections down, then stop
	// the flusher.
	t.flushAll()
	close(t.flusherStop)
	t.mu.Lock()
	for _, ln := range t.listeners {
		ln.Close()
	}
	for conn := range t.accepted {
		conn.Close()
	}
	for _, sc := range t.conns {
		sc.mu.Lock()
		if sc.conn != nil {
			sc.conn.Close()
			sc.conn = nil
		}
		sc.mu.Unlock()
	}
	t.mu.Unlock()
	t.wg.Wait()
	return nil
}
