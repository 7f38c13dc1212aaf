package sim

import (
	"math/rand"
	"testing"
	"time"

	"bluedove/internal/index"
	"bluedove/internal/workload"
)

// Property: events always execute in non-decreasing time order, with FIFO
// order among equal timestamps, regardless of the scheduling pattern —
// including events scheduled from inside other events.
func TestEngineOrderingProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for iter := 0; iter < 200; iter++ {
		e := NewEngine()
		type fired struct {
			at  int64
			seq int
		}
		var log []fired
		seq := 0
		var schedule func(depth int)
		schedule = func(depth int) {
			n := 1 + rng.Intn(5)
			for i := 0; i < n; i++ {
				at := e.Now() + int64(rng.Intn(100))
				mySeq := seq
				seq++
				d := depth
				e.At(at, func() {
					log = append(log, fired{at: e.Now(), seq: mySeq})
					if d < 3 && rng.Intn(3) == 0 {
						schedule(d + 1)
					}
				})
			}
		}
		schedule(0)
		e.RunUntil(1_000_000)
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				t.Fatalf("iter %d: time went backwards: %v then %v", iter, log[i-1], log[i])
			}
		}
		if e.Pending() != 0 {
			t.Fatalf("iter %d: %d events left past the horizon", iter, e.Pending())
		}
	}
}

// Property: two identically seeded clusters driven by identical workloads
// produce byte-identical statistics — the bit-reproducibility every figure
// depends on. It runs on the bucket index every figure uses (whose All
// ranges over a map) and compares the response-time distribution, not just
// counts: routing that drifts between runs moves the mean and tail while
// leaving completions unchanged.
func TestClusterBitDeterminismProperty(t *testing.T) {
	for _, seed := range []int64{1, 7, 42} {
		type snap struct {
			completed, lost int64
			maxNs           int64
			meanNs, p99Ns   float64
			backlog         int
		}
		run := func() snap {
			cfg := testConfig(4)
			cfg.Seed = seed
			cfg.IndexKind = index.KindBucket
			cl := NewCluster(cfg)
			w := workload.Default(cfg.Space)
			w.Seed = seed
			gen := workload.New(w)
			cl.SubscribeAll(gen.Subscriptions(300))
			cl.Drive(gen, workload.ConstantRate(400), int64(6*time.Second))
			cl.Engine().At(int64(3*time.Second), func() { _, _ = cl.FailRandomMatcher() })
			cl.RunUntil(int64(8 * time.Second))
			st := cl.Stats()
			return snap{
				completed: st.Completed.Value(),
				lost:      st.Lost.Value(),
				maxNs:     st.RespHist.Max(),
				meanNs:    st.RespHist.Mean(),
				p99Ns:     float64(st.RespHist.Quantile(0.99)),
				backlog:   cl.TotalBacklog(),
			}
		}
		a := run()
		for i := 0; i < 3; i++ {
			if b := run(); a != b {
				t.Fatalf("seed %d: replay %d diverged: %+v vs %+v", seed, i+1, a, b)
			}
		}
	}
}
