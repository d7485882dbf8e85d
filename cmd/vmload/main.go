// Command vmload is an open-loop load generator for vmserve: it
// materializes a seeded arrival schedule (homogeneous Poisson, or the
// paper §IV diurnal sinusoidal-rate process), then replays it against a
// live server minute-step by minute-step — advance /v1/clock, fire the
// minute's admissions and releases — compressing fleet time by the
// -minute interval. The run ends with a report: admission/rejection
// counts, per-operation latency quantiles, /metrics deltas, and digests
// that make runs comparable (same -seed against a fresh server ⇒ same
// outcome digest).
//
// Targets, two modes. One -addr: a vmserve, or a vmgate — the wire
// contract is the same. Repeated -addr: vmload builds the gate itself
// (shard.Gate, the code a vmgate daemon runs) over those shards and
// calls it in process, so routing, fan-out, merges and the combined
// state digest are a vmgate's, minus the network hop. The in-process
// gate's topology is the -addr list for the whole run; to follow a live
// resize, point one -addr at the vmgate that performs it.
//
// Instead of a synthetic profile, -trace replays a real request log: a
// CSV trace (id,type,cpu,mem,start,end — the internal/trace format) is
// mapped onto the same minute-step timeline, one admission per VM at
// its start minute, with the natural departures driven by the clock.
//
// Usage:
//
//	vmload -addr http://127.0.0.1:8080 -profile diurnal -vms 2000 -seed 7
//	vmload -addr http://127.0.0.1:8080 -minute 20ms -period 1440   # a day in ~29s
//	vmload -addr a=http://10.0.0.1:8080 -addr b=http://10.0.0.2:8080 -vms 2000
//	vmload -addr http://127.0.0.1:8080 -trace requests.csv -minute 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"vmalloc/internal/config"
	"vmalloc/internal/loadgen"
	"vmalloc/internal/obs"
	"vmalloc/internal/shard"
	"vmalloc/internal/trace"
	"vmalloc/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "vmload:", err)
		os.Exit(1)
	}
}

// stringList is a repeatable string flag (-addr u1 -addr u2).
type stringList []string

func (l *stringList) String() string { return fmt.Sprint([]string(*l)) }

func (l *stringList) Set(v string) error {
	*l = append(*l, v)
	return nil
}

// run replays the load. The report (and -digest / -out - output) goes to
// w; the structured progress log goes to errW, so digest-only pipelines
// stay machine-readable.
func run(ctx context.Context, args []string, w, errW io.Writer) error {
	fs := flag.NewFlagSet("vmload", flag.ContinueOnError)
	var addrs stringList
	fs.Var(&addrs, "addr", "target base URL, as url or name=url (default http://127.0.0.1:8080; repeat to front several vmserves with an in-process gate)")
	var (
		profile   = fs.String("profile", "diurnal", "arrival profile: poisson or diurnal")
		traceFile = fs.String("trace", "", "replay this CSV trace (id,type,cpu,mem,start,end) instead of generating a synthetic schedule")
		vms       = fs.Int("vms", 500, "number of VM admission requests to generate")
		meanIA    = fs.Float64("mean-interarrival", 0.5, "mean inter-arrival time (fleet minutes, paper §IV-B)")
		meanLen   = fs.Float64("mean-length", 60, "mean VM length (fleet minutes, exponential)")
		peak      = fs.Float64("peak-trough", 3, "diurnal peak-to-trough arrival-rate ratio")
		period    = fs.Float64("period", 1440, "diurnal period (fleet minutes; 1440 = one day)")
		seed      = fs.Int64("seed", 1, "seed: fully determines the schedule (and, with -chunk 0, the outcomes)")
		relFrac   = fs.Float64("release-fraction", 0.2, "fraction of VMs released early at a seeded minute")
		minute    = fs.Duration("minute", 20*time.Millisecond, "wall-clock time per fleet minute (0 = flat out)")
		workers   = fs.Int("workers", 8, "concurrent request workers")
		chunk     = fs.Int("chunk", 0, "admissions per HTTP call (0 = one call per minute-step, deterministic)")
		noClock   = fs.Bool("no-clock", false, "do not drive /v1/clock (the server's clock is advanced elsewhere)")
		consEvery = fs.Int("consolidate-every", 0, "POST /v1/consolidate after the tick of every fleet minute that is a multiple of this (0 = never)")
		consPol   = fs.String("consolidate-policy", "", "victim-selection policy for those passes: min-migration-time or min-utilization (empty = min-migration-time)")
		wait      = fs.Duration("wait", 10*time.Second, "how long to poll /healthz for readiness before the run (0 = don't)")
		jsonOut   = fs.String("out", "", "write the full JSON report to this file (\"-\" = stdout)")
		digestly  = fs.Bool("digest", false, "print only the outcome digest (for shell comparisons)")
		logFormat = fs.String("log-format", "text", "log output format: text or json")
		logLevel  = fs.String("log-level", "info", "log level: debug, info, warn, error")
		version   = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, config.Version())
		return nil
	}
	logger, err := obs.NewLogger(errW, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	// Either a real trace or a synthetic profile drives the run; the
	// report's profile field names which.
	var sched *loadgen.Schedule
	profName := *profile
	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			return err
		}
		vmsList, err := trace.ReadCSV(f)
		f.Close()
		if err != nil {
			return err
		}
		sched, err = loadgen.TraceSchedule(vmsList)
		if err != nil {
			return err
		}
		profName = "trace:" + filepath.Base(*traceFile)
	} else {
		arrivals := workload.DiurnalSpec{
			NumVMs:           *vms,
			MeanInterArrival: *meanIA,
			MeanLength:       *meanLen,
			PeakToTrough:     *peak,
			Period:           *period,
		}
		switch *profile {
		case "poisson":
			// Peak-to-trough 1 is the flat process for any period, so
			// -peak-trough and -period are ignored.
			arrivals.PeakToTrough, arrivals.Period = 1, 1
		case "diurnal":
		default:
			return fmt.Errorf("unknown profile %q (want poisson or diurnal)", *profile)
		}
		var err error
		sched, err = loadgen.BuildSchedule(loadgen.ScheduleSpec{
			Arrivals:        arrivals,
			ReleaseFraction: *relFrac,
			Seed:            *seed,
		})
		if err != nil {
			return err
		}
	}

	if len(addrs) == 0 {
		addrs = stringList{"http://127.0.0.1:8080"}
	}
	m, err := shard.ParseTargets(addrs)
	if err != nil {
		return err
	}
	if *wait > 0 {
		for _, s := range m.Shards() {
			if err := loadgen.NewClient(s.Addr).WaitReady(ctx, *wait); err != nil {
				return err
			}
		}
	}
	var client *loadgen.Client
	if m.Len() == 1 {
		// A single target needs no routing — drive it directly, whether
		// it is a vmserve or a vmgate.
		client = loadgen.NewClient(m.Shards()[0].Addr)
	} else {
		// Several targets: front them with the gate itself, called in
		// process — a vmgate's routing and merges without its network
		// hop. Its health probes run for the life of the run.
		gate := shard.NewGate(m, shard.Config{})
		gctx, stopGate := context.WithCancel(ctx)
		defer stopGate()
		go gate.Run(gctx)
		client = loadgen.NewHandlerClient(gate.Handler())
	}

	runner := &loadgen.Runner{
		Client:   client,
		Schedule: sched,
		Opts: loadgen.Options{
			Workers:           *workers,
			MinuteInterval:    *minute,
			Chunk:             *chunk,
			SkipClock:         *noClock,
			ConsolidateEvery:  *consEvery,
			ConsolidatePolicy: *consPol,
		},
	}
	logger.Info("replaying",
		"ops", sched.Ops(),
		"vms", sched.NumVMs,
		"steps", len(sched.Steps),
		"horizonMinutes", sched.Horizon,
		"targets", m.Len(),
		"addr", addrs.String(),
	)
	rep, err := runner.Run(ctx)
	if err != nil {
		return err
	}
	logger.Info("run finished",
		"accepted", rep.Accepted,
		"rejected", rep.Rejected,
		"releases", rep.Releases,
		"migrations", rep.Migrations,
		"errors", rep.Errors,
		"retries", rep.Retries,
		"wall", rep.Wall,
	)
	rep.Profile = profName
	rep.Seed = *seed

	switch {
	case *digestly:
		fmt.Fprintln(w, rep.OutcomeDigest)
	default:
		fmt.Fprint(w, rep.String())
	}
	if *jsonOut != "" {
		data, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			return err
		}
		data = append(data, '\n')
		if *jsonOut == "-" {
			if _, err := w.Write(data); err != nil {
				return err
			}
		} else if err := os.WriteFile(*jsonOut, data, 0o644); err != nil {
			return err
		}
	}
	if rep.Errors > 0 {
		return fmt.Errorf("run finished with %d failed operations", rep.Errors)
	}
	return nil
}
