// Package client is the BlueDove client library: publishers and subscribers
// connect to any dispatcher (the paper's Internet-facing front end) to
// register subscriptions, publish messages, and receive notifications —
// either pushed directly to a listening client or fetched by polling the
// dispatcher-hosted queue (paper Section II-B).
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/metrics"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

// Config parameterizes a Client.
type Config struct {
	// Transport carries client traffic; required.
	Transport transport.Transport
	// DispatcherAddr is the front-end endpoint to talk to; required.
	DispatcherAddr string
	// Subscriber identifies this client; required for subscribing.
	Subscriber core.SubscriberID
	// ListenAddr, when set together with OnDeliver, enables direct
	// delivery: the client listens here for pushed notifications.
	ListenAddr string
	// OnDeliver receives pushed notifications in direct mode. It is called
	// from transport goroutines; implementations must be concurrency-safe.
	OnDeliver func(msg *core.Message, subIDs []core.SubscriptionID)
	// RequestTimeout bounds subscribe/poll round-trips (default 5s).
	RequestTimeout time.Duration
	// Telemetry, when non-nil, samples publications at the bundle's rate
	// (stamping the client-side publish hop, so traces start at the true
	// origin rather than at dispatcher ingest), records traced deliveries,
	// and registers the client's counters and end-to-end latency histogram.
	Telemetry *telemetry.Telemetry
	// PublishRetries is the number of additional Publish attempts when the
	// dispatcher is unreachable. Zero selects the default (one retry with
	// no delay — the historical behavior); negative disables retries.
	PublishRetries int
	// PublishBackoff, when positive, spaces publish retries with a
	// full-jitter exponential backoff: retry n waits a uniformly random
	// duration in [0, PublishBackoff<<(n-1)]. Zero retries immediately.
	PublishBackoff time.Duration
	// PublishTTL stamps each publication with this time-to-live, so an
	// overloaded matcher sheds it at dequeue once stale instead of
	// matching it (0 = no TTL).
	PublishTTL time.Duration
	// AckPublish makes Publish a request/response round-trip: the
	// dispatcher explicitly admits (PublishAck) or rejects the
	// publication, and an overloaded dispatcher's rejection surfaces as
	// ErrOverloaded. False (the default) keeps fire-and-forget publishes.
	AckPublish bool
	// DedupWindow, when positive, suppresses duplicate pushed deliveries:
	// the client remembers the last DedupWindow distinct publication IDs
	// and drops redeliveries of them before the application callback.
	// At-least-once clusters (dispatcher persistence) redeliver whenever a
	// matcher ack is lost or a node restarts mid-flight; the window turns
	// that into exactly-once for the application, for any duplicate arriving
	// within the last DedupWindow distinct publications. Zero disables
	// suppression (every delivery reaches OnDeliver).
	DedupWindow int
	// Now supplies the clock for trace stamps (default time.Now).
	Now func() int64
}

// Client is a connected BlueDove client.
type Client struct {
	cfg        Config
	listenAddr string

	// e2eLatency observes client publish to client delivery per traced
	// publication (ns); only traced messages this client receives feed it.
	e2eLatency *metrics.Histogram
	published  metrics.Counter
	delivered  metrics.Counter
	suppressed metrics.Counter

	// dedup is the bounded duplicate-suppression window (nil when
	// DedupWindow is zero).
	dedup *dedupRing
}

// dedupRing is a bounded FIFO of the last N distinct message IDs with a
// lookup set — the duplicate-suppression window shared by direct-mode
// clients and edge sessions. Safe for concurrent use (deliveries arrive from
// transport goroutines).
type dedupRing struct {
	mu   sync.Mutex
	seen map[core.MessageID]struct{}
	ring []core.MessageID
	pos  int
}

func newDedupRing(window int) *dedupRing {
	if window <= 0 {
		return nil
	}
	return &dedupRing{
		seen: make(map[core.MessageID]struct{}, window),
		ring: make([]core.MessageID, window),
	}
}

// duplicate reports (and records) whether id was already seen within the
// window. A nil ring and the zero ID (nothing safe to key on) never
// suppress.
func (d *dedupRing) duplicate(id core.MessageID) bool {
	if d == nil || id == 0 {
		return false
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, dup := d.seen[id]; dup {
		return true
	}
	if old := d.ring[d.pos]; old != 0 {
		delete(d.seen, old)
	}
	d.ring[d.pos] = id
	d.pos = (d.pos + 1) % len(d.ring)
	d.seen[id] = struct{}{}
	return false
}

// New builds a client; in direct mode (ListenAddr + OnDeliver set) it binds
// the delivery listener immediately.
func New(cfg Config) (*Client, error) {
	if cfg.Transport == nil || cfg.DispatcherAddr == "" {
		return nil, errors.New("client: Transport and DispatcherAddr are required")
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 5 * time.Second
	}
	if cfg.Now == nil {
		cfg.Now = func() int64 { return time.Now().UnixNano() }
	}
	c := &Client{cfg: cfg, e2eLatency: metrics.NewHistogram(),
		dedup: newDedupRing(cfg.DedupWindow)}
	if tel := cfg.Telemetry; tel != nil {
		r := tel.Registry
		r.Counter("client.published", "publications sent by this client", &c.published)
		r.Counter("client.delivered", "notifications received by this client", &c.delivered)
		r.Counter("client.duplicates_suppressed",
			"pushed deliveries dropped by the duplicate-suppression window", &c.suppressed)
		r.Histogram("client.deliver_latency_seconds",
			"client publish to client delivery per traced publication", c.e2eLatency, 1e-9)
	}
	if cfg.OnDeliver != nil {
		if cfg.ListenAddr == "" {
			return nil, errors.New("client: OnDeliver requires ListenAddr")
		}
		addr, err := cfg.Transport.Listen(cfg.ListenAddr, c.handle)
		if err != nil {
			return nil, err
		}
		c.listenAddr = addr
	}
	return c, nil
}

// handle receives pushed deliveries in direct mode: the DeliverBatch frames
// matchers emit.
func (c *Client) handle(env *wire.Envelope) *wire.Envelope {
	switch env.Kind {
	case wire.KindDeliverBatch:
		if b, err := wire.DecodeDeliverBatch(env.Body); err == nil {
			for i := range b.Deliveries {
				if c.duplicate(b.Deliveries[i].Msg) {
					continue
				}
				c.observeDelivery(b.Deliveries[i].Msg)
				c.cfg.OnDeliver(b.Deliveries[i].Msg, b.Deliveries[i].SubIDs)
			}
		}
	}
	return nil
}

// duplicate reports (and records) whether msg was already delivered within
// the suppression window.
func (c *Client) duplicate(msg *core.Message) bool {
	if msg == nil || !c.dedup.duplicate(msg.ID) {
		return false
	}
	c.suppressed.Add(1)
	return true
}

// SuppressedDuplicates returns the number of deliveries dropped by the
// duplicate-suppression window.
func (c *Client) SuppressedDuplicates() int64 { return c.suppressed.Value() }

// observeDelivery counts the notification and, for traced messages, records
// the trace on the client side and feeds the end-to-end latency histogram.
func (c *Client) observeDelivery(msg *core.Message) {
	c.delivered.Add(1)
	tel := c.cfg.Telemetry
	if tel == nil || msg == nil || msg.Trace == nil {
		return
	}
	tel.Tracer.Record(msg.ID, msg.Trace)
	if pub := msg.Trace.Hops[core.HopPublish]; pub != 0 {
		c.e2eLatency.Observe(c.cfg.Now() - pub)
	}
}

// DeliverAddr returns the address matchers push to (empty in indirect
// mode).
func (c *Client) DeliverAddr() string { return c.listenAddr }

// Subscribe registers interest as a conjunction of per-dimension ranges and
// returns the assigned subscription ID.
func (c *Client) Subscribe(preds []core.Range) (core.SubscriptionID, error) {
	sub := core.NewSubscription(c.cfg.Subscriber, preds)
	body := (&wire.SubscribeBody{Sub: sub, DeliverAddr: c.listenAddr}).Encode()
	resp, err := c.cfg.Transport.Request(c.cfg.DispatcherAddr,
		&wire.Envelope{Kind: wire.KindSubscribe, Body: body}, c.cfg.RequestTimeout)
	if err != nil {
		return 0, err
	}
	switch resp.Kind {
	case wire.KindSubscribeAck:
		ack, err := wire.DecodeSubscribeAck(resp.Body)
		if err != nil {
			return 0, err
		}
		return ack.ID, nil
	case wire.KindError:
		if e, err := wire.DecodeError(resp.Body); err == nil {
			return 0, fmt.Errorf("client: subscribe rejected: %s", e.Text)
		}
	}
	return 0, fmt.Errorf("client: unexpected response %v", resp.Kind)
}

// Unsubscribe removes a subscription.
func (c *Client) Unsubscribe(id core.SubscriptionID) error {
	body := (&wire.UnsubscribeBody{ID: id}).Encode()
	return c.cfg.Transport.Send(c.cfg.DispatcherAddr,
		&wire.Envelope{Kind: wire.KindUnsubscribe, Body: body})
}

// ErrOverloaded is returned by Publish (AckPublish mode) when the
// dispatcher rejects the publication at admission control; the publication
// was not accepted and the caller should back off before retrying.
var ErrOverloaded = errors.New("client: dispatcher overloaded")

// Publish sends one publication (a point in the attribute space plus an
// opaque payload). Payloads too large for a wire frame are rejected here so
// applications get an error rather than the codec's panic. An unreachable
// dispatcher (stale pooled connection, brief blip) is retried
// Config.PublishRetries times (default once, immediately — spaced by
// full-jitter exponential backoff when PublishBackoff is set); when the
// dispatcher stays gone the caller gets a clean error naming it rather
// than an indefinite hang. With AckPublish set, Publish round-trips and an
// overloaded dispatcher's rejection surfaces as ErrOverloaded (never
// retried here: the caller owns that backoff decision).
func (c *Client) Publish(attrs []float64, payload []byte) error {
	// Slack covers the frame header, IDs and the trace context a sampled
	// message carries.
	if len(payload)+64+wire.TraceOverhead+8*len(attrs) > wire.MaxFrame {
		return fmt.Errorf("%w: %d-byte payload", wire.ErrBodyTooLarge, len(payload))
	}
	msg := core.NewMessage(attrs, payload)
	if c.cfg.PublishTTL > 0 {
		msg.TTL = int64(c.cfg.PublishTTL)
	}
	c.published.Add(1)
	if tel := c.cfg.Telemetry; tel != nil && tel.Sampler.Sample() {
		msg.Trace = &core.TraceCtx{}
		msg.Trace.Stamp(core.HopPublish, c.cfg.Now())
	}
	body := (&wire.PublishBody{Msg: msg}).Encode()
	retries := c.cfg.PublishRetries
	switch {
	case retries == 0:
		retries = 1
	case retries < 0:
		retries = 0
	}
	var err error
	for attempt := 0; ; attempt++ {
		err = c.publishOnce(body)
		if err == nil || !errors.Is(err, transport.ErrUnreachable) || attempt >= retries {
			break
		}
		if b := c.cfg.PublishBackoff; b > 0 {
			// Full jitter: uniform in [0, b<<attempt].
			time.Sleep(time.Duration(rand.Int63n(int64(b<<attempt) + 1)))
		}
	}
	if errors.Is(err, transport.ErrUnreachable) {
		return fmt.Errorf("client: dispatcher %s unreachable: %w", c.cfg.DispatcherAddr, err)
	}
	return err
}

// publishOnce performs one publish attempt: fire-and-forget by default, a
// request/response round-trip in AckPublish mode.
func (c *Client) publishOnce(body []byte) error {
	if !c.cfg.AckPublish {
		return c.cfg.Transport.Send(c.cfg.DispatcherAddr,
			&wire.Envelope{Kind: wire.KindPublish, Body: body})
	}
	resp, err := c.cfg.Transport.Request(c.cfg.DispatcherAddr,
		&wire.Envelope{Kind: wire.KindPublishReq, Body: body}, c.cfg.RequestTimeout)
	if err != nil {
		return err
	}
	switch resp.Kind {
	case wire.KindPublishAck:
		return nil
	case wire.KindError:
		if e, derr := wire.DecodeError(resp.Body); derr == nil {
			if strings.HasPrefix(e.Text, wire.OverloadedPrefix) {
				return fmt.Errorf("%w: %s", ErrOverloaded, e.Text)
			}
			return fmt.Errorf("client: publish rejected: %s", e.Text)
		}
	}
	return fmt.Errorf("client: unexpected response %v", resp.Kind)
}

// Poll fetches up to max queued notifications (indirect mode); max <= 0
// uses the server default batch.
func (c *Client) Poll(max int) ([]wire.DeliverBody, error) {
	body := (&wire.PollBody{Subscriber: c.cfg.Subscriber, Max: uint32(maxNonNeg(max))}).Encode()
	resp, err := c.cfg.Transport.Request(c.cfg.DispatcherAddr,
		&wire.Envelope{Kind: wire.KindPoll, Body: body}, c.cfg.RequestTimeout)
	if err != nil {
		return nil, err
	}
	if resp.Kind != wire.KindPollResponse {
		return nil, fmt.Errorf("client: unexpected response %v", resp.Kind)
	}
	b, err := wire.DecodePollResponse(resp.Body)
	if err != nil {
		return nil, err
	}
	return b.Deliveries, nil
}

func maxNonNeg(v int) int {
	if v < 0 {
		return 0
	}
	return v
}
