// Command vmgate is the stateless routing tier in front of a sharded
// vmserve deployment: it serves the same /v1 API as a single vmserve,
// but spreads VMs across shards by rendezvous-hashing their IDs
// (internal/shard), so capacity scales horizontally while clients keep
// speaking to one address.
//
// Reads aggregate: GET /v1/state scatter-gathers every shard and
// serves the combined view with a combined digest; GET /metrics merges
// the shards' Prometheus expositions under a shard label. Writes
// route: admissions and releases go to the shard owning the VM ID;
// POST /v1/clock fans out to all shards. A background prober watches
// shard /healthz endpoints — a down shard degrades only its own key
// range, answered with typed shard_down 503 envelopes, while the rest
// of the deployment keeps serving (GET /v1/shards shows the health
// table).
//
// The shard set comes from a versioned topology file (-topology
// topology.json: epoch, shards with name, url and optional weight) and
// can be changed at runtime with POST /v1/topology — the gate drains
// remapped VMs to their new owners live, with clients none the wiser
// (GET /v1/topology shows the epoch, weights and drain progress).
//
// The gate holds no placement state: restart it, run several behind a
// TCP balancer — as long as the topology (the names and weights,
// specifically) is identical, every gate routes identically.
//
// Usage:
//
//	vmgate -addr :8081 -topology topology.json
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"vmalloc/internal/config"
	"vmalloc/internal/obs"
	"vmalloc/internal/shard"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmgate:", err)
		os.Exit(1)
	}
}

func run(ctx context.Context, args []string, w io.Writer) error {
	fs := flag.NewFlagSet("vmgate", flag.ContinueOnError)
	var (
		addr       = fs.String("addr", ":8081", "listen address")
		topoPath   = fs.String("topology", "", "versioned topology file (JSON: epoch, shards with name/url/weight)")
		probe      = fs.Duration("probe-interval", shard.DefaultProbeInterval, "shard health-probe interval")
		timeout    = fs.Duration("timeout", shard.DefaultProxyTimeout, "per-shard proxy request timeout")
		logFormat  = fs.String("log-format", "text", "log output format: text or json")
		logLevel   = fs.String("log-level", "info", "log level: debug, info, warn, error")
		traceSpans = fs.Int("trace-spans", obs.DefaultSpanStoreSize, "trace span buffer capacity: how many gate route/fan-out/merge spans the stitched /v1/debug/traces keeps (0 = gate-side tracing off)")
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
	if *topoPath == "" {
		return errors.New("no shards configured (need -topology topology.json)")
	}
	m, err := shard.LoadTopology(*topoPath)
	if err != nil {
		return err
	}
	var spans *obs.SpanStore
	if *traceSpans > 0 {
		spans = obs.NewSpanStore(*traceSpans)
	}
	gate := shard.NewGate(m, shard.Config{
		Timeout:       *timeout,
		ProbeInterval: *probe,
		Logger:        logger,
		Spans:         spans,
	})

	probeCtx, stopProbe := context.WithCancel(context.Background())
	defer stopProbe()
	go gate.Run(probeCtx)

	// Listen before announcing, so the logged address is the bound one
	// (ports like :0 resolve here) and readiness pollers have a real
	// target as soon as the line appears.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	srv := &http.Server{
		Handler:           gate.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	errCh := make(chan error, 1)
	go func() {
		logger.Info("routing",
			"shards", m.Len(),
			"epoch", m.Epoch(),
			"addr", ln.Addr().String(),
			"version", config.Build().Version,
		)
		for _, s := range m.Shards() {
			logger.Info("shard", "name", s.Name, "addr", s.Addr, "weight", s.Weight)
		}
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
		}
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	logger.Info("shutting down")
	shutCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	return srv.Shutdown(shutCtx)
}
