package matcher

import (
	"sync"

	"bluedove/internal/core"
	"bluedove/internal/index"
)

// indexShard is one partition of a dimension's subscription set: its slice
// of the per-dimension index plus the delivery addresses of the
// subscriptions it holds. Subscriptions are assigned to shards by ID hash,
// so every mutation and every per-shard read touches exactly one shard lock.
//
// Concurrency contract: index *mutations* (Add/Remove) take the shard's
// write lock and arrive from the serialized transport handler paths; the
// match path takes only read locks, so with S shards a batch's stab+verify
// work fans out across S read-side workers without contending the mutation
// path.
type indexShard struct {
	mu    sync.RWMutex
	idx   *index.Bucket
	addrs map[core.SubscriptionID]string
}

// shardOf maps a subscription ID to its shard (splitmix64 finalizer — IDs
// are sequential, so low bits alone would stripe poorly).
func shardOf(id core.SubscriptionID, shards int) int {
	if shards == 1 {
		return 0
	}
	z := uint64(id)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	z ^= z >> 31
	return int(z % uint64(shards))
}

// shardHit is one (message, subscription) match produced by a shard worker,
// carrying the delivery address read under the shard lock. Hits are emitted
// in message order within each shard, so the merge pass is a cursor sweep.
type shardHit struct {
	msg  int32 // index into the batch's live-message slice
	hit  index.Hit
	addr string
}

// shardJob is one shard's stab+verify work over a batch of messages. Jobs
// live in the pooled match scratch and are reused, so steady-state parallel
// matching allocates nothing: the hit list and the MatchHits destination
// retain their capacity.
type shardJob struct {
	shard   *indexShard
	msgs    []*core.Message
	hits    []shardHit
	found   []index.Hit
	scanned int
	cur     int // merge cursor into hits (owned by the merging stage)
	wg      *sync.WaitGroup
}

// run performs the shard's share of the batch under one read-lock
// acquisition.
func (j *shardJob) run() {
	sh := j.shard
	j.hits = j.hits[:0]
	j.scanned = 0
	sh.mu.RLock()
	for mi, msg := range j.msgs {
		var n int
		j.found, n = sh.idx.MatchHits(msg, j.found[:0])
		j.scanned += n
		for _, h := range j.found {
			j.hits = append(j.hits, shardHit{msg: int32(mi), hit: h, addr: sh.addrs[h.ID]})
		}
	}
	sh.mu.RUnlock()
	j.wg.Done()
}

// reset drops the job's object references so pooling does not pin messages
// or addresses past their useful life.
func (j *shardJob) reset() {
	j.shard = nil
	j.msgs = nil
	j.wg = nil
	j.cur = 0
	clear(j.hits)
	j.hits = j.hits[:0]
	j.found = j.found[:0]
}

// matchPool is the matcher's shared worker pool for parallel shard matching:
// submitted jobs are pointers into pooled scratch, so dispatch is
// allocation-free. One pool serves every dimension stage — the stages
// serialize mutations, the pool spreads reads across cores.
type matchPool struct {
	jobs chan *shardJob
	wg   sync.WaitGroup
}

// newMatchPool starts a pool with the given number of workers.
func newMatchPool(workers, queue int) *matchPool {
	p := &matchPool{jobs: make(chan *shardJob, queue)}
	p.wg.Add(workers)
	for i := 0; i < workers; i++ {
		go p.work()
	}
	return p
}

func (p *matchPool) work() {
	defer p.wg.Done()
	for j := range p.jobs {
		j.run()
	}
}

// submit hands one shard job to the pool.
func (p *matchPool) submit(j *shardJob) { p.jobs <- j }

// stop drains and terminates the workers.
func (p *matchPool) stop() {
	close(p.jobs)
	p.wg.Wait()
}
