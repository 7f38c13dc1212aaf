// Command benchmark is the repository's one benchmark: it boots the real
// in-process cluster, drives four named workloads from a single process,
// checks every delivery against a brute-force oracle and prints every metric
// by name with its unit. See README.md in this directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strings"
)

// header identifies what was measured and where.
type header struct {
	GitSHA     string `json:"git_sha"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	Seed       int64  `json:"seed"`
	Seconds    int    `json:"seconds"`
	Traced     bool   `json:"traced"`
}

func newHeader(seed int64, seconds int, traced bool) header {
	h := header{GitSHA: "unknown", GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU: runtime.NumCPU(), Seed: seed, Seconds: seconds, Traced: traced}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				h.GitSHA = s.Value
			}
		}
	}
	return h
}

// report is the document a full run prints. It makes no performance claim:
// it only states what was measured.
type report struct {
	Header    header       `json:"header"`
	EndToEnd  []metricDecl `json:"end_to_end"`
	PerLayer  []metricDecl `json:"per_layer,omitempty"`
	Workloads []*outcome   `json:"workloads"`
	Claim     *string      `json:"claim"`
}

func run(w *mix, seed int64, seconds int, traced bool, outDir string) (*outcome, error) {
	if traced {
		return runTraced(w, seed, seconds, outDir)
	}
	return runUntraced(w, seed, seconds, outDir)
}

// printOutcome writes one workload's metrics as text, one per line.
func printOutcome(o *outcome, decls []metricDecl) {
	fmt.Printf("%s seed=%d attempted=%d failed=%d failed_share=%.6f correct=%v\n",
		o.Workload, o.Seed, o.Attempted, o.Failed, float64(o.Failed)/float64(max(o.Attempted, 1)), o.Correct)
	for _, d := range decls {
		m := o.Metrics[d.Name]
		line := fmt.Sprintf("  %-34s %14.4f %-6s (%s is better", d.Name, m.Value, m.Unit, d.Better)
		if d.Bound > 0 {
			line += fmt.Sprintf(", regression bound %.0f%%", d.Bound*100)
		}
		fmt.Println(line + ")")
	}
	keys := make([]string, 0, len(o.Notes))
	for k := range o.Notes {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	for _, k := range keys {
		fmt.Printf("  note %-29s %14.4f\n", k, o.Notes[k])
	}
}

// selfcheck runs the full set n times on consecutive seeds and reports, per
// workload and end-to-end metric, the minimum, median, maximum and spread;
// it fails when a spread exceeds the metric's declared bound or an open-loop
// generator ended a paced phase more than 100 ms behind schedule.
func selfcheck(n int, seed int64, seconds int, outDir string) bool {
	ok := true
	for _, w := range workloads {
		values := map[string][]float64{}
		for i := 0; i < n; i++ {
			o, err := runUntraced(w, seed+int64(i), seconds, outDir)
			if err != nil {
				fmt.Printf("%s seed %d: %v\n", w.name, seed+int64(i), err)
				ok = false
				continue
			}
			if !o.Correct || o.Failed > 0 {
				fmt.Printf("%s seed %d: correct=%v failed=%d\n", w.name, o.Seed, o.Correct, o.Failed)
				ok = false
			}
			if lag := o.Notes["paced.lag_end_ms"]; lag > 100 {
				fmt.Printf("%s seed %d: paced rate not sustained, generator ended %.0f ms behind\n", w.name, o.Seed, lag)
				ok = false
			}
			for name, m := range o.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, d := range endToEnd {
			v := values[d.Name]
			if len(v) == 0 {
				continue
			}
			sp := spread(v)
			verdict := "ok"
			if sp > d.Bound && d.Name != "setup_s" {
				verdict, ok = "SPREAD EXCEEDS BOUND", false
			}
			fmt.Printf("%-14s %-18s min %12.4f median %12.4f max %12.4f spread %.3f bound %.2f %s\n",
				w.name, d.Name, slices.Min(v), median(v), slices.Max(v), sp, d.Bound, verdict)
		}
	}
	return ok
}

func main() {
	var (
		name    = flag.String("workload", "", "run this one workload and end with the one-line result; default: all four and a full report")
		seed    = flag.Int64("seed", 1, "workload seed; the program under test only ever sees the generated inputs")
		seconds = flag.Int("seconds", 15, "measured seconds per workload")
		trace   = flag.Int("trace", 0, "1: traced run, producing the per-layer ledger and span files instead of the end-to-end metrics")
		check   = flag.Int("selfcheck", 0, "run the full set this many times and check the spreads against the declared bounds")
		outDir  = flag.String("out", "out", "directory for span files and journals")
	)
	flag.Parse()
	if *seconds < 1 || *trace < 0 || *trace > 1 || flag.NArg() > 0 {
		flag.Usage()
		os.Exit(2)
	}
	if err := os.MkdirAll(*outDir, 0o755); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	traced := *trace == 1
	decls := endToEnd
	if traced {
		decls = perLayer
	}
	h := newHeader(*seed, *seconds, traced)
	fmt.Printf("bluedove benchmark git=%s %s gomaxprocs=%d num_cpu=%d seed=%d seconds=%d traced=%v\n",
		h.GitSHA, h.GoVersion, h.GOMAXPROCS, h.NumCPU, h.Seed, h.Seconds, h.Traced)

	switch {
	case *check > 0:
		if !selfcheck(*check, *seed, *seconds, *outDir) {
			os.Exit(1)
		}
	case *name != "":
		w := workloadByName(*name)
		if w == nil {
			names := make([]string, len(workloads))
			for i, w := range workloads {
				names[i] = w.name
			}
			fmt.Fprintf(os.Stderr, "unknown workload %q (want %s)\n", *name, strings.Join(names, "|"))
			os.Exit(2)
		}
		o, err := run(w, *seed, *seconds, traced, *outDir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		printOutcome(o, decls)
		// The last line is the whole result, for a driver to parse.
		line, err := json.Marshal(struct {
			Correct   bool              `json:"correct"`
			Attempted int               `json:"attempted"`
			Failed    int               `json:"failed"`
			Metrics   map[string]metric `json:"metrics"`
		}{o.Correct, o.Attempted, o.Failed, o.Metrics})
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(string(line))
		if !o.Correct {
			os.Exit(1)
		}
	default:
		rep := report{Header: h, EndToEnd: endToEnd}
		if traced {
			rep.PerLayer = perLayer
		}
		correct := true
		for _, w := range workloads {
			o, err := run(w, *seed, *seconds, traced, *outDir)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				os.Exit(2)
			}
			printOutcome(o, decls)
			rep.Workloads = append(rep.Workloads, o)
			correct = correct && o.Correct
		}
		doc, err := json.MarshalIndent(rep, "", " ")
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		fmt.Println(string(doc))
		if !correct {
			os.Exit(1)
		}
	}
}
