// Command bluedove runs one BlueDove server node — a matcher or a
// dispatcher — over TCP, forming a cluster with its peers through the
// gossip overlay.
//
// A minimal three-node cluster on one host:
//
//	bluedove -role matcher    -addr 127.0.0.1:7001 -id 1
//	bluedove -role matcher    -addr 127.0.0.1:7002 -id 2 -seeds 127.0.0.1:7001
//	bluedove -role dispatcher -addr 127.0.0.1:7000 -id 100 -seeds 127.0.0.1:7001 -bootstrap 2
//
// The dispatcher waits until it sees two matchers in gossip, then publishes
// the initial segment table. Additional matchers join elastically:
//
//	bluedove -role matcher -addr 127.0.0.1:7003 -id 3 -seeds 127.0.0.1:7001 -join
//
// An edge server fronts many lightweight subscriber sessions behind one
// aggregated subscription registered with a dispatcher:
//
//	bluedove -role edge -addr 127.0.0.1:7100 -id 200 -dispatcher 127.0.0.1:7000
//
// A border dispatcher federates this cluster with peer clusters: it gossips
// with the local overlay, summarizes local interest, and exchanges
// summaries and matching publications with the peer clusters' borders:
//
//	bluedove -role border -addr 127.0.0.1:7200 -id 300 -seeds 127.0.0.1:7001 \
//	    -cluster-id 1 -peers 10.0.2.1:7200,10.0.3.1:7200
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"bluedove/internal/core"
	"bluedove/internal/dispatcher"
	"bluedove/internal/edge"
	"bluedove/internal/federation"
	"bluedove/internal/gossip"
	"bluedove/internal/matcher"
	"bluedove/internal/partition"
	"bluedove/internal/store"
	"bluedove/internal/telemetry"
	"bluedove/internal/transport"
	"bluedove/internal/wire"
)

func main() {
	var (
		role      = flag.String("role", "", "node role: matcher, dispatcher, edge or border (required)")
		id        = flag.Uint64("id", 0, "unique node ID (required)")
		addr      = flag.String("addr", "127.0.0.1:0", "listen address")
		seeds     = flag.String("seeds", "", "comma-separated gossip seed addresses")
		dims      = flag.Int("dims", 4, "searchable dimensions")
		extent    = flag.Float64("extent", 1000, "value range per dimension [0, extent)")
		bootstrap = flag.Int("bootstrap", 0, "dispatcher: publish the initial table once this many matchers are visible")
		join      = flag.Bool("join", false, "matcher: join an existing cluster via a dispatcher (elastic split)")
		policy    = flag.String("policy", "adaptive", "dispatcher forwarding policy: adaptive|resptime|subamount|random")
		admin     = flag.String("admin", "", "serve the admin surface (/metrics, /debug/vars, /debug/traces, pprof) on this address; empty disables")
		traceRate = flag.Float64("trace-sample", 0, "fraction of publications traced hop-by-hop (0 disables, 1 traces all)")
		dataDir   = flag.String("data-dir", "", "journal this node's state under this directory and recover it on restart; empty keeps all state in memory")
		fsyncPol  = flag.String("fsync", "always", "journal durability policy with -data-dir: always|interval|never")
		elasticOn = flag.Bool("elastic", false, "dispatcher: run the elasticity controller in advisory mode over matcher load reports (decisions logged and exported as elastic.* telemetry)")
		elasticIv = flag.Duration("elastic-interval", 2*time.Second, "dispatcher: elasticity controller scrape interval with -elastic")
		dispAddr  = flag.String("dispatcher", "", "edge: dispatcher address the aggregated subscriber registers with (required for -role edge)")
		edgePol   = flag.String("edge-policy", "backpressure", "edge: slow-consumer policy: backpressure|drop-oldest|disconnect")
		edgeBuf   = flag.Int("edge-buffer", 0, "edge: per-session send buffer and unacked flight window in bytes (0 = 256 KiB)")
		resumeWin = flag.Int("resume-window", 0, "edge: per-session resume replay ring in deliveries (0 = 1024)")
		clusterID = flag.Uint64("cluster-id", 0, "border: this cluster's federation ID (required for -role border)")
		peers     = flag.String("peers", "", "border: comma-separated peer-cluster border addresses")
		sumIv     = flag.Duration("summary-interval", time.Second, "border: interest summary refresh/exchange cadence")
		maxHops   = flag.Int("max-hops", 1, "border: inter-cluster hop budget per publication")
	)
	flag.Parse()
	if *role == "" || *id == 0 {
		flag.Usage()
		os.Exit(2)
	}
	space := core.UniformSpace(*dims, *extent)
	var seedList []string
	if *seeds != "" {
		seedList = strings.Split(*seeds, ",")
	}
	tr := transport.NewTCP()
	defer tr.Close()

	switch *role {
	case "matcher", "dispatcher", "edge", "border":
	default:
		log.Fatalf("unknown role %q", *role)
	}
	tel := nodeTelemetry(tr, core.NodeID(*id), *role, *admin, *traceRate)
	fsync := fsyncByName(*fsyncPol)

	switch *role {
	case "matcher":
		runMatcher(tr, space, core.NodeID(*id), *addr, seedList, *join, tel, *dataDir, fsync)
	case "dispatcher":
		runDispatcher(tr, space, core.NodeID(*id), *addr, seedList, *bootstrap, *policy, tel, *dataDir, fsync,
			elasticOpts{on: *elasticOn, interval: *elasticIv})
	case "edge":
		runEdge(tr, space, core.NodeID(*id), *addr, *dispAddr, tel,
			edgeFlags{policy: *edgePol, bufferBytes: *edgeBuf, resumeWindow: *resumeWin})
	case "border":
		runBorder(tr, space, core.NodeID(*id), *addr, seedList, tel,
			borderFlags{cluster: *clusterID, peers: *peers,
				summaryInterval: *sumIv, maxHops: *maxHops})
	}
}

// borderFlags bundles the border role's federation flags.
type borderFlags struct {
	cluster         uint64
	peers           string
	summaryInterval time.Duration
	maxHops         int
}

func runBorder(tr transport.Transport, space *core.Space, id core.NodeID,
	addr string, seeds []string, tel *telemetry.Telemetry, bf borderFlags) {
	if bf.cluster == 0 {
		log.Fatal("border role requires -cluster-id")
	}
	var peerList []string
	if bf.peers != "" {
		peerList = strings.Split(bf.peers, ",")
	}
	b, err := federation.Start(federation.Config{
		ID: id, Addr: addr, Space: space, Transport: tr, Seeds: seeds,
		Cluster: bf.cluster, Peers: peerList,
		SummaryInterval: bf.summaryInterval, MaxHops: bf.maxHops,
		Telemetry: tel,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer b.Stop()
	log.Printf("border %v listening on %s (cluster %d, %d peers)",
		id, b.Addr(), bf.cluster, len(peerList))
	waitForSignal()
}

// fsyncByName maps the -fsync flag to a journal policy.
func fsyncByName(name string) store.Fsync {
	switch name {
	case "always":
		return store.FsyncAlways
	case "interval":
		return store.FsyncInterval
	case "never":
		return store.FsyncNever
	}
	log.Fatalf("unknown fsync policy %q", name)
	return store.FsyncAlways
}

// nodeTelemetry builds this node's telemetry bundle (identity labels,
// transport counters, admin surface) when observability is requested.
func nodeTelemetry(tr *transport.TCP, id core.NodeID, role, adminAddr string, sampleRate float64) *telemetry.Telemetry {
	if adminAddr == "" && sampleRate <= 0 {
		return nil
	}
	tel := telemetry.New(telemetry.Options{
		SampleRate: sampleRate,
		Base: []telemetry.Label{
			telemetry.L("node", fmt.Sprintf("%d", id)),
			telemetry.L("role", role),
		},
	})
	r := tel.Registry
	r.Counter("transport.frames_sent", "one-way frames written", &tr.FramesSent)
	r.Counter("transport.bytes_sent", "frame body bytes written", &tr.BytesSent)
	r.Counter("transport.frames_received", "inbound frames handled", &tr.FramesReceived)
	r.Counter("transport.bytes_received", "inbound frame body bytes", &tr.BytesReceived)
	if adminAddr != "" {
		adm, err := telemetry.Serve(adminAddr, tel)
		if err != nil {
			log.Fatalf("admin endpoint: %v", err)
		}
		log.Printf("admin surface on http://%s/metrics", adm.Addr())
	}
	return tel
}

func runMatcher(tr transport.Transport, space *core.Space, id core.NodeID,
	addr string, seeds []string, join bool, tel *telemetry.Telemetry,
	dataDir string, fsync store.Fsync) {
	m, err := matcher.New(matcher.Config{
		ID: id, Addr: addr, Space: space, Transport: tr, Seeds: seeds,
		Telemetry: tel, DataDir: dataDir, Fsync: fsync,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := m.Start(); err != nil {
		log.Fatal(err)
	}
	defer m.Stop()
	log.Printf("matcher %v listening on %s", id, m.Addr())

	if join {
		go joinViaDispatcher(tr, m.Gossiper(), id, m.Addr())
	}
	waitForSignal()
}

// joinViaDispatcher waits for a dispatcher to appear in gossip, then runs
// the paper's join protocol against it.
func joinViaDispatcher(tr transport.Transport, g *gossip.Gossiper, id core.NodeID, addr string) {
	for i := 0; i < 60; i++ {
		for _, p := range g.Peers() {
			if p.Role != core.RoleDispatcher || !p.Alive {
				continue
			}
			body := (&wire.JoinBody{ID: id, Addr: addr}).Encode()
			resp, err := tr.Request(p.Addr, &wire.Envelope{Kind: wire.KindJoin, From: id, Body: body}, 5*time.Second)
			if err != nil {
				log.Printf("join via %s failed: %v", p.Addr, err)
				continue
			}
			ack, err := wire.DecodeJoinAck(resp.Body)
			if err != nil || ack.Err != "" {
				log.Printf("join rejected: %v %s", err, ack.Err)
				continue
			}
			t, err := partition.Decode(ack.Table)
			if err == nil {
				log.Printf("joined: now %d matchers in table v%d", t.N(), t.Version())
			}
			return
		}
		time.Sleep(time.Second)
	}
	log.Print("join: no dispatcher discovered within 60s")
}

// edgeFlags bundles the edge role's tuning flags.
type edgeFlags struct {
	policy       string
	bufferBytes  int
	resumeWindow int
}

func runEdge(tr transport.Transport, space *core.Space, id core.NodeID,
	addr, dispAddr string, tel *telemetry.Telemetry, ef edgeFlags) {
	if dispAddr == "" {
		log.Fatal("edge role requires -dispatcher <addr>")
	}
	pol, err := edge.PolicyByName(ef.policy)
	if err != nil {
		log.Fatal(err)
	}
	e, err := edge.New(edge.Config{
		ID: id, Addr: addr, Space: space, Transport: tr,
		DispatcherAddr: dispAddr, Policy: pol,
		BufferBytes: ef.bufferBytes, ResumeWindow: ef.resumeWindow,
		Telemetry: tel,
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := e.Start(); err != nil {
		log.Fatal(err)
	}
	defer e.Stop()
	log.Printf("edge %v listening on %s (policy %s, upstream %s)", id, e.Addr(), pol, dispAddr)
	waitForSignal()
}

// elasticOpts bundles the dispatcher's elasticity-advisor flags.
type elasticOpts struct {
	on       bool
	interval time.Duration
}

func runDispatcher(tr transport.Transport, space *core.Space, id core.NodeID,
	addr string, seeds []string, bootstrap int, policyName string, tel *telemetry.Telemetry,
	dataDir string, fsync store.Fsync, eo elasticOpts) {
	pol := policyByName(policyName, int64(id))
	d, err := dispatcher.New(dispatcher.Config{
		ID: id, Addr: addr, Space: space, Transport: tr, Seeds: seeds, Policy: pol,
		Telemetry: tel, DataDir: dataDir, Fsync: fsync, Persistent: dataDir != "",
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := d.Start(); err != nil {
		log.Fatal(err)
	}
	defer d.Stop()
	log.Printf("dispatcher %v listening on %s (policy %s)", id, d.Addr(), pol.Name())

	if bootstrap > 0 {
		go bootstrapTable(d, space, bootstrap)
	}
	if eo.on {
		stop := make(chan struct{})
		defer close(stop)
		go elasticAdvisor(d, space, eo.interval, tel, stop)
		log.Printf("elasticity advisor on (every %v)", eo.interval)
	}
	waitForSignal()
}

// bootstrapTable publishes the initial uniform table once enough matchers
// are visible and no table circulates yet.
func bootstrapTable(d *dispatcher.Dispatcher, space *core.Space, want int) {
	for {
		time.Sleep(500 * time.Millisecond)
		if d.Table() != nil {
			return // someone already bootstrapped
		}
		var ids []core.NodeID
		for _, p := range d.Gossiper().Peers() {
			if p.Role == core.RoleMatcher && p.Alive {
				ids = append(ids, p.ID)
			}
		}
		if len(ids) < want {
			continue
		}
		t, err := partition.NewUniform(space, ids[:want])
		if err != nil {
			log.Printf("bootstrap: %v", err)
			return
		}
		d.SetTable(t)
		log.Printf("bootstrapped table v%d over %d matchers", t.Version(), want)
		return
	}
}

func policyByName(name string, seed int64) forwardPolicy {
	if p := forwardByName(name, seed); p != nil {
		return p
	}
	log.Fatalf("unknown policy %q", name)
	return nil
}

func waitForSignal() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, syscall.SIGINT, syscall.SIGTERM)
	sig := <-ch
	fmt.Fprintf(os.Stderr, "shutting down on %v\n", sig)
}
