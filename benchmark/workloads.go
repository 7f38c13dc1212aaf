package main

import (
	"math/rand"
	"time"

	"bluedove/internal/cluster"
	"bluedove/internal/core"
	"bluedove/internal/store"
	"bluedove/internal/workload"
)

// mix is one named traffic mix. Everything not set in options keeps the
// cluster.Options default (4 matchers, 2 dispatchers, bucket index, the
// paper's 1 s gossip and report intervals).
type mix struct {
	name string
	// why is the one-line reason the workload exists; BENCHMARK.json carries
	// the same text.
	why string
	// pacedRate is the fixed open-loop rate of the paced phase in msgs/s. It
	// was set once at about a sixth of the sat-phase throughput of the
	// reference box and is never derived at run time: a run on a slower
	// commit is offered the same load, so the slowdown shows as latency. The
	// rate is that low because the box's speed wanders by a third: nearer
	// saturation, queueing turns that into a latency spread no bound holds.
	pacedRate float64
	// options returns the cluster configuration; dataDir is a fresh
	// directory for workloads that journal.
	options func(space *core.Space, dataDir string) cluster.Options
	// build generates the static subscriptions (the pool is filled by the
	// caller).
	build func(in *inputs, seed int64)
	// edge: receivers are sessions attached to edge 0 with AttachLocal.
	edge bool
	// ack: publishers round-trip (ack means journaled) instead of
	// fire-and-forget, and one generator slot goes to the churn goroutine.
	ack bool
	// churnRate is subscribe/unsubscribe operations per second issued
	// beside the publishers (0: none).
	churnRate float64
}

var workloads = []*mix{
	{
		name:      "match_heavy",
		why:       "40k paper-distribution subscriptions on the mesh: matcher, index and stage queue do nearly all the work",
		pacedRate: 1000,
		options: func(space *core.Space, _ string) cluster.Options {
			return cluster.Options{Space: space}
		},
		build: func(in *inputs, seed int64) {
			in.nRecv = 2
			in.subs = paperSubs(in.space, seed, 40_000, in.nRecv)
		},
	},
	{
		name:      "route_tcp",
		why:       "256 tiling subscriptions over loopback TCP with batching on: wire, transport and dispatcher dominate, matching is free",
		pacedRate: 10000,
		options: func(space *core.Space, _ string) cluster.Options {
			return cluster.Options{Space: space, TCP: true,
				ForwardLinger: time.Millisecond, TCPFlushInterval: time.Millisecond}
		},
		build: func(in *inputs, _ int64) {
			in.nRecv = 2
			in.subs = tilingSubs(in.space, 256, in.nRecv)
		},
	},
	{
		name:      "durable_churn",
		why:       "journaled acked publishes beside 200 subscribe/unsubscribe ops/s: store, registry and index writes next to reads",
		pacedRate: 5000,
		options: func(space *core.Space, dataDir string) cluster.Options {
			// Interval fsync: the fsync latency of a shared sandbox disk
			// is not a property of the code.
			return cluster.Options{Space: space, Persistent: true,
				DataDir: dataDir, Fsync: store.FsyncInterval}
		},
		build: func(in *inputs, seed int64) {
			in.nRecv = 2
			in.subs = paperSubs(in.space, seed, 5_000, in.nRecv)
			cfg := workload.Default(in.space)
			cfg.Seed = seed + 1
			in.churn = workload.New(cfg)
		},
		ack:       true,
		churnRate: 200,
	},
	{
		name:      "edge_fanout",
		why:       "20k AttachLocal sessions behind one edge, ~20 reached per publication: edge staging, re-match and flush dominate",
		pacedRate: 500,
		options: func(space *core.Space, _ string) cluster.Options {
			return cluster.Options{Space: space, Edges: 1}
		},
		build: func(in *inputs, seed int64) {
			const sessions = 20_000
			in.nRecv = sessions
			// width/extent = sqrt(20/sessions): ~20 sessions per point.
			in.subs = sessionSubs(in.space, rand.New(rand.NewSource(seed)), sessions, 31.6)
		},
		edge: true,
	},
}

func workloadByName(name string) *mix {
	for _, w := range workloads {
		if w.name == name {
			return w
		}
	}
	return nil
}

// generate builds a workload's inputs from the seed alone.
func (w *mix) generate(seed int64) (*inputs, error) {
	in := &inputs{space: core.UniformSpace(4, 1000)}
	w.build(in, seed)
	if err := in.fillPool(rand.New(rand.NewSource(seed ^ 0x5eed))); err != nil {
		return nil, err
	}
	return in, nil
}
