package main

import (
	"context"
	"fmt"
	"os"
)

// aaRuns is how many runs of each workload make one A/A set, each on another
// seed: the driver's number.
const aaRuns = 10

// runAA is the A/A mode: the same build measured twice, the way the driver
// accepts a benchmark. Each set runs every workload aaRuns times, each run on
// another seed and in a fresh process. For every end-to-end metric of
// every workload it prints both medians, how much worse the second is than
// the first, and the spread of each set (the distance between the first and
// third quartile as a share of the median), all beside the metric's bound.
// It exits 1 when a difference or a spread (setup_s's spread excepted, as
// in the driver) is past the bound.
func runAA(ctx context.Context, seconds float64) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	fmt.Printf("A/A on one build: 2 sets x %d runs per workload, %.0fs measured per run\n%s\n\n",
		aaRuns, seconds, takeFingerprint(root))
	// values[set][workload][metric] is the runs' values.
	var values [2]map[string]map[string][]float64
	for set := range values {
		values[set] = map[string]map[string][]float64{}
		for _, w := range workloads {
			values[set][w.Name] = map[string][]float64{}
			for i := 0; i < aaRuns; i++ {
				seed := int64(1 + set*aaRuns + i)
				got, correct, err := subRun(ctx, w.Name, seed, seconds, 0, false)
				if err != nil {
					fmt.Fprintln(os.Stderr, "bench:", err)
					return 1
				}
				if !correct {
					fmt.Fprintf(os.Stderr, "bench: %s seed %d failed a check\n", w.Name, seed)
					return 1
				}
				for k, v := range got {
					values[set][w.Name][k] = append(values[set][w.Name][k], v)
				}
			}
			fmt.Fprintf(os.Stderr, "set %d: %s done\n", set+1, w.Name)
		}
	}
	ok := true
	fmt.Println("| workload | metric | unit | median A | median B | B worse by | spread A | spread B | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|---|")
	for _, w := range workloads {
		for _, m := range endToEnd {
			a, b := values[0][w.Name][m.Name], values[1][w.Name][m.Name]
			ma, mb := median(a), median(b)
			worse := (mb - ma) / ma
			if m.Better == higher {
				worse = (ma - mb) / ma
			}
			sa, sb := spread(a), spread(b)
			verdict := "ok"
			if worse > m.Bound || (m.Name != "setup_s" && (sa > m.Bound || sb > m.Bound)) {
				verdict = "PAST BOUND"
				ok = false
			}
			fmt.Printf("| %s | %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.1f%% | %.0f%% | %s |\n",
				w.Name, m.Name, m.Unit, ma, mb, 100*worse, 100*sa, 100*sb, 100*m.Bound, verdict)
		}
	}
	if !ok {
		fmt.Println("\nA/A FAILED: at least one metric is past its bound on identical code")
		return 1
	}
	fmt.Println("\nA/A passed: every metric of every workload agrees within its bound")
	return 0
}
