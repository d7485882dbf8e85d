// Command vmserve runs the cluster allocation service as a long-running
// HTTP daemon: VM requests are admitted (singly or batched) against a
// live fleet, state survives restarts through the journal + snapshot
// directory, and Prometheus metrics are exposed on /metrics.
//
// The HTTP API is internal/clusterhttp (POST/DELETE /v1/vms, POST
// /v1/clock, POST/GET /v1/migrations, POST /v1/consolidate, GET
// /v1/state, GET /v1/debug/decisions, /healthz, /metrics); cmd/vmload is
// the matching load generator. -consolidate-interval runs the
// pay-for-itself consolidation pass on a background cadence in addition
// to the on-demand endpoint.
//
// -replay does not serve: it replays the -journal directory under every
// placement policy, on the fleet the other flags build, and prints one
// row per policy — what each would have done with the same admissions,
// releases and clock advances (cluster.Replay). Its window is the records
// since the directory's last snapshot, so replay a copy taken before
// shutdown of a daemon run with -snapshot-every -1.
//
// Observability: logs are structured (log/slog; -log-format text|json),
// every request gets/propagates an X-Request-Id, the last -decisions
// admission/rejection/release decisions are kept in an in-memory flight
// recorder (GET /v1/debug/decisions; dumped to the log on SIGQUIT), and
// -debug-addr serves net/http/pprof on a separate listener.
//
// Usage:
//
//	vmserve -servers 50 -transition 2 -journal /var/lib/vmserve
//	vmserve -fleet fleet.json -policy delay-aware
//	vmserve -log-format json -debug-addr 127.0.0.1:6060
//	vmserve -servers 50 -transition 2 -journal copy-of-journal -replay
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"vmalloc/internal/api"
	"vmalloc/internal/cluster"
	"vmalloc/internal/clusterhttp"
	"vmalloc/internal/config"
	"vmalloc/internal/model"
	"vmalloc/internal/obs"
	"vmalloc/internal/online"
	"vmalloc/internal/workload"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmserve:", err)
		os.Exit(1)
	}
}

// SIGQUIT dump tails: the newest trace spans and energy samples worth
// reading in a log, small enough to stay legible next to the flight
// recorder's decisions.
const (
	sigquitDumpSpans  = 64
	sigquitDumpEnergy = 16
)

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmserve", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8080", "listen address")
		fleetFile  = fs.String("fleet", "", "fleet JSON file: an instance or a bare server array (overrides -servers)")
		servers    = fs.Int("servers", 50, "generated fleet size (Table II catalog)")
		transition = fs.Float64("transition", 2, "generated fleet transition time (minutes)")
		seed       = fs.Int64("seed", 1, "seed for the generated fleet and the ffps policy")
		policy     = fs.String("policy", "mincost", "placement policy: "+strings.Join(online.PolicyNames(), ", "))
		penalty    = fs.Float64("delay-penalty", online.DefaultDelayPenalty, "delay-aware policy: watt-minutes per minute of start delay")
		idle       = fs.Int("idle-timeout", 2, "minutes an empty server stays active before sleeping (-1 = never)")
		journalDir = fs.String("journal", "", "journal + snapshot directory (empty = volatile state)")
		snapEvery  = fs.Int("snapshot-every", 0, "journaled mutations between snapshots (0 = default, <0 = only on shutdown)")
		noFsync    = fs.Bool("unsafe-no-fsync", false, "UNSAFE: skip journal fsyncs; acknowledged state survives a crash but NOT power loss (soak/load tests only)")
		consEvery  = fs.Duration("consolidate-interval", 0, "run a background consolidation pass this often (0 = only on POST /v1/consolidate)")
		consPolicy = fs.String("consolidate-policy", "", "default victim-selection policy for consolidation: min-migration-time or min-utilization")
		migCost    = fs.Float64("migration-cost-per-gb", 0, "Eq. 17 migration overhead in watt-minutes per GB of VM memory (0 = migrations are free)")
		donorUtil  = fs.Float64("donor-utilization", 0, "CPU-utilisation fraction below which an active server is a drain candidate (0 = default 0.5)")
		logFormat  = fs.String("log-format", "text", "log output format: text or json")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn, error")
		decisions  = fs.Int("decisions", obs.DefaultRecorderSize, "flight-recorder capacity: how many admission/rejection/release decisions /v1/debug/decisions keeps")
		traceSpans = fs.Int("trace-spans", obs.DefaultSpanStoreSize, "trace span buffer capacity: how many stage/route spans /v1/debug/traces keeps (0 = tracing off)")
		energyWin  = fs.Int("energy-window", obs.DefaultEnergyWindow, "energy telemetry window: how many fleet energy/utilization samples /v1/debug/energy keeps (0 = off)")
		debugAddr  = fs.String("debug-addr", "", "serve net/http/pprof on this extra listener (empty = off)")
		replay     = fs.Bool("replay", false, "replay the -journal directory under every placement policy on this fleet, print one row each and exit")
		version    = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Fprintln(w, config.Version())
		return nil
	}
	logger, err := obs.NewLogger(w, *logFormat, *logLevel)
	if err != nil {
		return err
	}

	fleet, err := loadFleet(*fleetFile, *servers, *transition, *seed)
	if err != nil {
		return err
	}
	pol, err := online.NewPolicy(*policy, *penalty, *seed)
	if err != nil {
		return err
	}
	if *replay {
		return printReplay(w, *journalDir, fleet, *idle, *penalty, *seed, pol.Name())
	}
	if *consPolicy != "" && *consPolicy != api.PolicyMinMigrationTime && *consPolicy != api.PolicyMinUtilization {
		return fmt.Errorf("unknown consolidate policy %q (want %s or %s)",
			*consPolicy, api.PolicyMinMigrationTime, api.PolicyMinUtilization)
	}
	recorder := obs.NewFlightRecorder(*decisions)
	var spans *obs.SpanStore
	if *traceSpans > 0 {
		spans = obs.NewSpanStore(*traceSpans)
	}
	var energy *obs.EnergyRecorder
	if *energyWin > 0 {
		energy = obs.NewEnergyRecorder(*energyWin)
	}

	c, err := cluster.Open(cluster.Config{
		Servers:            fleet,
		Policy:             pol,
		IdleTimeout:        *idle,
		Dir:                *journalDir,
		SnapshotEvery:      *snapEvery,
		DisableFsync:       *noFsync,
		MigrationCostPerGB: *migCost,
		ConsolidatePolicy:  *consPolicy,
		DonorUtilization:   *donorUtil,
		Recorder:           recorder,
		Logger:             logger.With("component", "cluster"),
		Spans:              spans,
		Energy:             energy,
	})
	if err != nil {
		return err
	}

	// Background consolidation: a pay-for-itself drain pass on a wall-
	// clock cadence. Already-running passes (a concurrent POST
	// /v1/consolidate) are skipped, not queued — the next tick retries.
	if *consEvery > 0 {
		go func() {
			tick := time.NewTicker(*consEvery)
			defer tick.Stop()
			clog := logger.With("component", "consolidator")
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
				}
				res, err := c.Consolidate(ctx, api.ConsolidateRequest{})
				switch {
				case errors.Is(err, cluster.ErrConsolidationBusy):
					clog.Debug("consolidation pass skipped: another is running")
				case errors.Is(err, cluster.ErrClosed) || ctx.Err() != nil:
					return
				case err != nil:
					clog.Warn("consolidation pass failed", "err", err)
				case res.Executed > 0:
					clog.Info("background consolidation",
						"executed", res.Executed, "savedWattMinutes", res.EnergySavedWattMinutes)
				}
			}
		}()
	}

	// SIGQUIT is the black-box readout: dump the flight recorder to the
	// log and keep serving (unlike SIGINT/SIGTERM, it does not stop the
	// daemon).
	quitCh := make(chan os.Signal, 1)
	signal.Notify(quitCh, syscall.SIGQUIT)
	defer signal.Stop(quitCh)
	go func() {
		for range quitCh {
			n := recorder.Dump(logger.With("component", "flight-recorder"))
			ns := spans.Dump(logger.With("component", "trace"), sigquitDumpSpans)
			ne := energy.Dump(logger.With("component", "energy"), sigquitDumpEnergy)
			logger.Info("flight recorder dumped", "decisions", n, "spans", ns, "energySamples", ne)
		}
	}()

	// Listen before announcing, so the logged address is the bound one
	// (ports like :0 resolve here) and readiness pollers have a real
	// target as soon as the line appears.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		c.Close()
		return err
	}
	srv := &http.Server{
		Handler: clusterhttp.New(c, clusterhttp.Config{
			Logger:   logger,
			Recorder: recorder,
			Spans:    spans,
			Energy:   energy,
		}),
		ReadHeaderTimeout: 10 * time.Second,
	}

	var debugSrv *http.Server
	if *debugAddr != "" {
		dln, err := net.Listen("tcp", *debugAddr)
		if err != nil {
			c.Close()
			ln.Close()
			return err
		}
		dmux := http.NewServeMux()
		dmux.HandleFunc("/debug/pprof/", pprof.Index)
		dmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		dmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		dmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		dmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		debugSrv = &http.Server{Handler: dmux, ReadHeaderTimeout: 10 * time.Second}
		go func() {
			logger.Info("debug server", "addr", dln.Addr().String())
			if err := debugSrv.Serve(dln); !errors.Is(err, http.ErrServerClosed) {
				logger.Warn("debug server stopped", "err", err)
			}
		}()
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("serving",
			"servers", len(fleet),
			"policy", pol.Name(),
			"addr", ln.Addr().String(),
			"version", config.Build().Version,
		)
		if *noFsync {
			logger.Warn("journal fsync DISABLED (-unsafe-no-fsync): state will not survive power loss")
		}
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		c.Close()
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	shutErr := srv.Shutdown(shutCtx)
	if debugSrv != nil {
		debugSrv.Shutdown(shutCtx) //nolint:errcheck // best-effort
	}
	if err := c.Close(); err != nil {
		return err
	}
	logger.Info("state persisted, bye")
	return shutErr
}

// printReplay replays dir under every online.NewPolicy name and prints
// one row per policy: its decisions, divergences from the journaled
// placements and rejections, and its fleet's energy at the last record's
// clock, also as the paper's reduction against ffps, (E_ffps − E)/E_ffps.
// The champion's row, which should diverge nowhere, is starred.
func printReplay(w io.Writer, dir string, fleet []model.Server, idle int, penalty float64, seed int64, champion string) error {
	if dir == "" {
		return errors.New("-replay needs -journal")
	}
	var policies []online.Policy
	for _, name := range online.PolicyNames() {
		p, err := online.NewPolicy(name, penalty, seed)
		if err != nil {
			return err
		}
		policies = append(policies, p)
	}
	rows, err := cluster.Replay(dir, fleet, idle, policies)
	if err != nil {
		return err
	}
	var ffps float64
	for _, r := range rows {
		if r.Policy == "online/ffps" {
			ffps = r.EnergyWattMinutes
		}
	}
	fmt.Fprintf(w, "  %-22s %9s %11s %10s %22s %10s %9s %6s\n",
		"policy", "decisions", "divergences", "rejections", "energy_watt_minutes", "vs_ffps_%", "residents", "clock")
	for _, r := range rows {
		mark := " "
		if r.Policy == champion {
			mark = "*"
		}
		fmt.Fprintf(w, "%s %-22s %9d %11d %10d %22s %10.2f %9d %6d\n", mark, r.Policy, r.Decisions, r.Divergences,
			r.Rejections, strconv.FormatFloat(r.EnergyWattMinutes, 'g', -1, 64), 100*(ffps-r.EnergyWattMinutes)/ffps, r.Residents, r.Clock)
	}
	return nil
}

// loadFleet reads the server list from a JSON file — either a full
// instance ({"servers": [...]}) or a bare array — or generates a
// catalog fleet.
func loadFleet(path string, n int, transition float64, seed int64) ([]model.Server, error) {
	if path == "" {
		spec := workload.FleetSpec{NumServers: n, TransitionTime: transition}
		inst, err := workload.Generate(workload.Spec{NumVMs: 1, MeanInterArrival: 1, MeanLength: 1}, spec, seed)
		if err != nil {
			return nil, err
		}
		return inst.Servers, nil
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	trimmed := strings.TrimSpace(string(data))
	if strings.HasPrefix(trimmed, "[") {
		var servers []model.Server
		if err := json.Unmarshal(data, &servers); err != nil {
			return nil, fmt.Errorf("parse fleet %s: %w", path, err)
		}
		return servers, nil
	}
	var inst model.Instance
	if err := json.Unmarshal(data, &inst); err != nil {
		return nil, fmt.Errorf("parse fleet %s: %w", path, err)
	}
	if len(inst.Servers) == 0 {
		return nil, fmt.Errorf("fleet %s has no servers", path)
	}
	return inst.Servers, nil
}
