// Command bluedove-bench regenerates the paper's evaluation figures and
// tables on the discrete-event simulator and prints them in the same form
// the paper reports (see EXPERIMENTS.md for the comparison).
//
//	bluedove-bench -fig 6a            # one figure at the default scale
//	bluedove-bench -fig all           # the whole evaluation
//	bluedove-bench -fig 7 -scale paper  # full 40k-subscription workload
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
	"time"

	"bluedove/internal/experiment"
)

func main() {
	var (
		fig   = flag.String("fig", "all", "figure to regenerate: 5|6a|6b|7|8|9|10|11a|11b|11c|overhead|all")
		scale = flag.String("scale", "small", "workload scale: tiny|small|paper")
	)
	flag.Parse()

	var sc experiment.Scale
	switch *scale {
	case "tiny":
		sc = experiment.ScaleTiny()
	case "small":
		sc = experiment.ScaleSmall()
	case "paper":
		sc = experiment.ScalePaper()
	default:
		log.Fatalf("unknown scale %q", *scale)
	}

	runners := map[string]func(experiment.Scale) fmt.Stringer{
		"5":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig5(s).Table() },
		"6a":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig6a(s).Table() },
		"6b":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig6b(s).Table() },
		"7":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig7(s).Table() },
		"8":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig8(s).Table() },
		"9":        func(s experiment.Scale) fmt.Stringer { return experiment.Fig9(s).Table() },
		"10":       func(s experiment.Scale) fmt.Stringer { return experiment.Fig10(s).Table() },
		"11a":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11a(s).Table() },
		"11b":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11b(s).Table() },
		"11c":      func(s experiment.Scale) fmt.Stringer { return experiment.Fig11c(s).Table() },
		"overhead": func(s experiment.Scale) fmt.Stringer { return experiment.Overhead(s).Table() },
	}
	order := []string{"5", "6a", "6b", "overhead", "7", "8", "9", "10", "11a", "11b", "11c"}

	run := func(name string) {
		r, ok := runners[name]
		if !ok {
			log.Fatalf("unknown figure %q", name)
		}
		start := time.Now()
		out := r(sc)
		fmt.Println(out)
		fmt.Fprintf(os.Stderr, "[fig %s: %v]\n\n", name, time.Since(start).Round(time.Millisecond))
	}

	if *fig == "all" {
		for _, name := range order {
			run(name)
		}
		return
	}
	run(*fig)
}
