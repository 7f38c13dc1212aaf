// Benchmarks that regenerate every table and figure of the paper's
// evaluation (Section IV) plus ablations of BlueDove's design choices.
// Each BenchmarkFigNN runs the corresponding experiment once per iteration
// (experiments take seconds to minutes, so the harness settles on N=1) and
// prints the same rows/series the paper reports; key scalar outcomes are
// also attached as benchmark metrics. See EXPERIMENTS.md for the
// paper-vs-measured comparison and bluedove-bench for the CLI front end.
package bluedove_test

import (
	"flag"
	"fmt"
	"testing"

	"bluedove/internal/experiment"
	"bluedove/internal/forward"
	"bluedove/internal/index"
	"bluedove/internal/placement"
	"bluedove/internal/workload"
)

var paperScale = flag.Bool("paperscale", false,
	"run figure benchmarks at the paper's full workload scale (40k subscriptions; ~100x slower)")

func benchScale() experiment.Scale {
	if *paperScale {
		return experiment.ScalePaper()
	}
	return experiment.ScaleSmall()
}

func BenchmarkFig5ResponseVsSaturation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig5(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.SatRate, "sat-msgs/s")
		nb, na := len(r.Below), len(r.Above)
		if nb > 0 && na > 0 {
			b.ReportMetric(r.Below[nb-1].V*1000, "below-final-ms")
			b.ReportMetric(r.Above[na-1].V*1000, "above-final-ms")
		}
	}
}

func BenchmarkFig6aSaturationVsMatchers(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig6a(benchScale())
		fmt.Println(r.Table())
		last := len(r.Matchers) - 1
		b.ReportMetric(r.Rates["BlueDove"][last], "bluedove-msgs/s")
		b.ReportMetric(r.Gain("P2P", last), "gain-vs-p2p")
		b.ReportMetric(r.Gain("Full-Rep", last), "gain-vs-fullrep")
	}
}

func BenchmarkFig6bMaxSubscriptions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig6b(benchScale())
		fmt.Println(r.Table())
		last := len(r.Matchers) - 1
		b.ReportMetric(float64(r.MaxSubs["BlueDove"][last]), "bluedove-subs")
		b.ReportMetric(r.Gain("P2P", last), "gain-vs-p2p")
		b.ReportMetric(r.Gain("Full-Rep", last), "gain-vs-fullrep")
	}
}

func BenchmarkOverheadMaintenance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Overhead(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.GossipBpsPerMatcher, "gossip-B/s/matcher")
		b.ReportMetric(r.TotalBpsPerMatcher, "total-B/s/matcher")
	}
}

func BenchmarkFig7ForwardingPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig7(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.GainOverRandom(), "adaptive-vs-random")
	}
}

func BenchmarkFig8LoadBalance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig8(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.NormStdBlueDove, "normstd-bluedove")
		b.ReportMetric(r.NormStdP2P, "normstd-p2p")
	}
}

func BenchmarkFig9Elasticity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig9(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(float64(len(r.JoinTimesSec)), "joins")
		b.ReportMetric(float64(r.FinalMatchers), "final-matchers")
	}
}

func BenchmarkFig10FaultTolerance(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig10(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(100*r.PeakLoss, "peak-loss-%")
		b.ReportMetric(r.MeanRecoverySec, "recovery-s")
	}
}

func BenchmarkFig11aDimensions(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig11a(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.Gain41(), "gain-4d-vs-1d")
	}
}

func BenchmarkFig11bSubscriptionSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig11b(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(100*r.Drop(), "drop-%")
	}
}

func BenchmarkFig11cMessageSkew(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Fig11c(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(100*r.Drop(), "drop-%")
	}
}

// --- Ablations -------------------------------------------------------------

// BenchmarkAblationExtrapolation sweeps the load-report interval: the
// adaptive policy's advantage over the no-extrapolation response-time policy
// grows as reports get staler, the motivation for Section III-B2.
func BenchmarkAblationExtrapolation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		wcfg := sc.Workload()
		subs := workload.New(wcfg).Subscriptions(sc.Subs)
		n := sc.MatcherCounts[len(sc.MatcherCounts)-1]
		tbl := &experiment.Table{
			Title:  "Ablation: queue extrapolation vs report staleness",
			Header: []string{"report interval", "adaptive (msg/s)", "resptime (msg/s)", "advantage"},
		}
		for _, mult := range []int{1, 3} {
			rates := map[string]float64{}
			for _, pol := range []forward.Policy{forward.Adaptive{}, forward.ResponseTime{}} {
				v := experiment.Variant{Label: pol.Name(), Strategy: placement.BlueDove{},
					Policy: pol, Index: sc.IndexKind}
				probeScale := sc
				probeScale.SatMeasure = sc.SatMeasure * 2 // staler reports need longer windows
				rate := experiment.SaturationRateWithReportInterval(probeScale, n, v, wcfg, subs, mult)
				rates[pol.Name()] = rate
			}
			adv := 0.0
			if rates["resptime"] > 0 {
				adv = rates["adaptive"] / rates["resptime"]
			}
			tbl.AddRow(fmt.Sprintf("%ds", mult), rates["adaptive"], rates["resptime"],
				fmt.Sprintf("%.2fx", adv))
		}
		fmt.Println(tbl)
	}
}

// BenchmarkAblationIndexKind compares matcher index implementations under
// identical workloads — the paper's "local index searching time can be
// greatly reduced... a key factor to the high throughput".
func BenchmarkAblationIndexKind(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		wcfg := sc.Workload()
		subs := workload.New(wcfg).Subscriptions(sc.Subs)
		n := sc.MatcherCounts[len(sc.MatcherCounts)-1]
		tbl := &experiment.Table{
			Title:  "Ablation: matcher index kind (BlueDove, " + fmt.Sprint(n) + " matchers)",
			Header: []string{"index", "saturation rate (msg/s)"},
		}
		for _, kind := range []index.Kind{index.KindScan, index.KindBucket, index.KindIntervalTree} {
			v := experiment.Variant{Label: kind.String(), Strategy: placement.BlueDove{},
				Policy: forward.Adaptive{}, Index: kind}
			rate := experiment.SaturationRate(sc, n, v, wcfg, subs)
			tbl.AddRow(kind.String(), rate)
		}
		fmt.Println(tbl)
	}
}

// BenchmarkAblationNeighborReplication measures the Section III-A1
// coincident-candidate replication safeguard (expected to be cost-neutral:
// the coincidence probability is ~N^-(k-1)).
func BenchmarkAblationNeighborReplication(b *testing.B) {
	for i := 0; i < b.N; i++ {
		sc := benchScale()
		wcfg := sc.Workload()
		subs := workload.New(wcfg).Subscriptions(sc.Subs)
		n := sc.MatcherCounts[len(sc.MatcherCounts)-1]
		tbl := &experiment.Table{
			Title:  "Ablation: neighbor replication for coincident candidates",
			Header: []string{"replication", "saturation rate (msg/s)"},
		}
		for _, off := range []bool{false, true} {
			v := experiment.Variant{Label: fmt.Sprint(!off),
				Strategy: placement.BlueDove{DisableReplication: off},
				Policy:   forward.Adaptive{}, Index: sc.IndexKind}
			tbl.AddRow(fmt.Sprint(!off), experiment.SaturationRate(sc, n, v, wcfg, subs))
		}
		fmt.Println(tbl)
	}
}

// BenchmarkExtensionPersistence evaluates the paper's Section VI future-work
// item implemented here: dispatcher-side message persistence removes the
// crash-window loss of Figure 10.
func BenchmarkExtensionPersistence(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.Persistence(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(100*r.LossBase, "baseline-loss-%")
		b.ReportMetric(100*r.LossPersist, "persistent-loss-%")
		b.ReportMetric(float64(r.Retries), "retries")
	}
}

// BenchmarkExtensionDimSelection evaluates the paper's Section VI
// attribute-selection item implemented here: when applications constrain
// only some attributes, partitioning on just those dimensions avoids
// replicating every subscription along the unconstrained ones.
func BenchmarkExtensionDimSelection(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r := experiment.DimSelect(benchScale())
		fmt.Println(r.Table())
		b.ReportMetric(r.RateSelected/r.RateAll, "rate-ratio")
		b.ReportMetric(float64(r.CopiesAll)/float64(r.CopiesSelected), "copies-saved-x")
	}
}
