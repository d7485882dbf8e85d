// Command vmalloc places the VMs of a JSON instance (see cmd/vmworkload)
// onto its servers and reports the placement plan and exact energy
// breakdown. Placements are independently re-verified against the paper's
// ILP constraints before being printed.
//
// Usage:
//
//	vmalloc -in instance.json                 # MinCost (the paper's heuristic)
//	vmalloc -in instance.json -algo ffps      # the FFPS baseline
//	vmalloc -in instance.json -algo bestfit    # any name of the baseline registry
//	vmalloc -in instance.json -json           # machine-readable output
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"sort"
	"strings"
	"text/tabwriter"
	"time"

	"vmalloc/internal/baseline"
	"vmalloc/internal/config"
	"vmalloc/internal/core"
	"vmalloc/internal/energy"
	"vmalloc/internal/ilp"
	"vmalloc/internal/metrics"
	"vmalloc/internal/model"
	"vmalloc/internal/online"
	"vmalloc/internal/search"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmalloc:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmalloc", flag.ContinueOnError)
	var (
		in      = fs.String("in", "", "instance JSON file (default stdin)")
		algo    = fs.String("algo", "mincost", "allocator: "+strings.Join(baseline.Names(), ", ")+" (or firstfit, the efficiency ordering); with -online: "+strings.Join(online.PolicyNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed for randomised allocators")
		asJSON  = fs.Bool("json", false, "emit the result as JSON")
		details = fs.Bool("plan", true, "print the per-VM placement plan")
		improve = fs.Bool("improve", false, "refine the placement with local search")
		stats   = fs.Bool("stats", false, "print the allocator's observability counters")
		onlineF = fs.Bool("online", false, "run the event-driven simulator instead of offline allocation")
		timeout = fs.Int("idle-timeout", 2, "online mode: minutes an empty server stays active before sleeping (-1 = never)")
		version = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, config.Version())
		return nil
	}
	var (
		data []byte
		err  error
	)
	if *in == "" {
		data, err = io.ReadAll(os.Stdin)
	} else {
		data, err = os.ReadFile(*in)
	}
	if err != nil {
		return err
	}
	var inst model.Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		return fmt.Errorf("parse instance: %w", err)
	}
	if err := inst.Validate(); err != nil {
		return err
	}
	if *onlineF {
		return runOnline(ctx, w, inst, *algo, *seed, *timeout)
	}
	mk, err := baseline.Lookup(*algo)
	if err != nil {
		return err
	}
	res, err := mk(core.WithSeed(*seed)).Allocate(ctx, inst)
	if err != nil {
		return err
	}
	if *improve {
		place, _, stats, err := (&search.Improver{Seed: *seed}).Improve(inst, res.Placement)
		if err != nil {
			return err
		}
		breakdown, err := energy.EvaluateObjective(inst, place)
		if err != nil {
			return err
		}
		used := make(map[int]bool)
		for _, srv := range place {
			used[srv] = true
		}
		res.Placement = place
		res.Energy = breakdown
		res.ServersUsed = len(used)
		res.Allocator += fmt.Sprintf("+search (%d moves)", stats.Relocations+stats.Swaps)
	}
	if err := ilp.CheckPlacement(inst, res.Placement); err != nil {
		return fmt.Errorf("placement failed verification: %w", err)
	}
	util, err := metrics.AverageUtilization(inst, res.Placement)
	if err != nil {
		return err
	}
	if *asJSON {
		out := struct {
			*core.Result
			Utilization metrics.Utilization `json:"utilization"`
		}{res, util}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	fmt.Fprintf(w, "allocator:    %s\n", res.Allocator)
	fmt.Fprintf(w, "VMs placed:   %d on %d of %d servers\n",
		len(res.Placement), res.ServersUsed, len(inst.Servers))
	fmt.Fprintf(w, "energy:       %.1f watt-minutes (run %.1f + idle %.1f + transition %.1f)\n",
		res.Energy.Total(), res.Energy.Run, res.Energy.Idle, res.Energy.Transition)
	fmt.Fprintf(w, "utilization:  CPU %.1f%%, memory %.1f%% (busy servers)\n",
		100*util.CPU, 100*util.Mem)
	if *stats && res.Stats != nil {
		st := res.Stats
		fmt.Fprintf(w, "scan:         %d candidates, %d rejected\n", st.CandidatesEvaluated, st.FeasibilityRejections)
		fmt.Fprintf(w, "time:         total %v (scan %v + commit %v)\n",
			st.TotalWall.Round(time.Microsecond), st.ScanWall.Round(time.Microsecond),
			st.CommitWall.Round(time.Microsecond))
	}
	if !*details {
		return nil
	}
	fmt.Fprintln(w)
	tw := tabwriter.NewWriter(w, 2, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "VM\ttype\tinterval\tserver")
	ids := make([]int, 0, len(res.Placement))
	for id := range res.Placement {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	for _, id := range ids {
		v, _ := inst.VMByID(id)
		s, _ := inst.ServerByID(res.Placement[id])
		fmt.Fprintf(tw, "%d\t%s\t[%d,%d]\t%d (%s)\n", id, v.Type, v.Start, v.End, s.ID, s.Type)
	}
	return tw.Flush()
}

// runOnline drives the event-driven engine and prints its report.
func runOnline(ctx context.Context, w io.Writer, inst model.Instance, algo string, seed int64, timeout int) error {
	policy, err := online.NewPolicy(algo, online.DefaultDelayPenalty, seed)
	if err != nil {
		return err
	}
	rep, err := (&online.Engine{Policy: policy, IdleTimeout: timeout}).Run(inst)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "policy:        %s (idle timeout %d min)\n", rep.Policy, timeout)
	fmt.Fprintf(w, "VMs placed:    %d on %d of %d servers\n",
		len(rep.Placement), rep.ServersUsed, len(inst.Servers))
	fmt.Fprintf(w, "energy:        %.1f watt-minutes (run %.1f + idle %.1f + transition %.1f)\n",
		rep.Energy.Total(), rep.Energy.Run, rep.Energy.Idle, rep.Energy.Transition)
	fmt.Fprintf(w, "wake-ups:      %d\n", rep.Transitions)
	fmt.Fprintf(w, "start delays:  mean %.2f min, max %d min\n", rep.MeanStartDelay, rep.MaxStartDelay)
	// An instance the offline heuristic cannot place just omits the line; a
	// cancelled run must not pass for a complete report.
	offline, err := core.NewMinCost().Allocate(ctx, inst)
	if err == nil {
		fmt.Fprintf(w, "vs offline:    clairvoyant MinCost would bill %.1f watt-minutes (%+.1f%%)\n",
			offline.Energy.Total(), 100*(rep.Energy.Total()/offline.Energy.Total()-1))
	}
	return ctx.Err()
}
