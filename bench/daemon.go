package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strings"
	"syscall"
	"time"

	"vmalloc"
	"vmalloc/internal/api"
)

// daemon is one running vmserve or vmgate.
type daemon struct {
	name string
	url  string
	cmd  *exec.Cmd
	log  string // path of its captured stdout+stderr
	// execAt is the instant just before exec, the start of a restart_s
	// measurement.
	execAt time.Time
	exited chan struct{} // closed once the process has been reaped
}

// freeAddr reserves a loopback port by binding and releasing it.
func freeAddr() (string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer ln.Close()
	return ln.Addr().String(), nil
}

// startDaemon execs bin with args plus -addr, and returns once /healthz
// answers 200. env entries (KEY=VALUE) are appended to the inherited
// environment. The process dies with the bench (Pdeathsig) and with ctx.
func startDaemon(ctx context.Context, name, bin, logDir string, env, args []string) (*daemon, error) {
	addr, err := freeAddr()
	if err != nil {
		return nil, err
	}
	d := &daemon{name: name, url: "http://" + addr, log: filepath.Join(logDir, name+".log")}
	logf, err := os.Create(d.log)
	if err != nil {
		return nil, err
	}
	defer logf.Close()
	d.cmd = exec.CommandContext(ctx, bin, append([]string{"-addr", addr, "-log-level", "warn"}, args...)...)
	d.cmd.Stdout, d.cmd.Stderr = logf, logf
	d.cmd.Env = append(os.Environ(), env...)
	d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	d.execAt = time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, fmt.Errorf("bench: start %s: %w", name, err)
	}
	d.exited = make(chan struct{})
	go func() {
		d.cmd.Wait() //nolint:errcheck // a killed daemon's exit status says nothing
		close(d.exited)
	}()
	if err := d.waitHealthy(ctx); err != nil {
		d.kill()
		return nil, err
	}
	return d, nil
}

// waitHealthy polls /healthz until it answers 200, the process exits, or
// 20 s pass.
func (d *daemon) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		select {
		case <-d.exited:
			return fmt.Errorf("bench: %s exited before becoming healthy:\n%s", d.name, d.logTail())
		case <-ctx.Done():
			return ctx.Err()
		default:
		}
		resp, err := hc.Get(d.url + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(time.Millisecond)
	}
	return fmt.Errorf("bench: %s not healthy after 20s:\n%s", d.name, d.logTail())
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

func (d *daemon) sample() procSample {
	s, _ := readProc(d.pid()) // a vanished process reads as zeros, and the checks catch the failed ops
	return s
}

// kill SIGKILLs the daemon and waits until it is gone. Every bench daemon
// is throwaway, so none gets a graceful shutdown; operator-restart relies
// on that being a crash.
func (d *daemon) kill() {
	if d == nil || d.exited == nil {
		return
	}
	d.cmd.Process.Kill() //nolint:errcheck // already-exited is fine
	<-d.exited
}

func (d *daemon) logTail() string {
	b, err := os.ReadFile(d.log)
	if err != nil {
		return ""
	}
	if len(b) > 2000 {
		b = b[len(b)-2000:]
	}
	return string(b)
}

// vmserveHelp is the flag list this checkout's vmserve prints. The bench
// reads it so that it never passes a flag a later change removed, and so that
// it knows the daemon's defaults from the daemon, not from a copy.
func vmserveHelp(binDir string) string {
	out, _ := exec.Command(filepath.Join(binDir, "vmserve"), "-h").CombinedOutput() // -h exits 2 by design
	return string(out)
}

// flagListed reports whether the help text lists the flag.
func flagListed(help, name string) bool {
	return strings.Contains(help, "  -"+name+" ")
}

// flagDefaultMS is the default the help text gives for a duration flag, in
// milliseconds; 0 when the flag is gone or has no default.
func flagDefaultMS(help, name string) float64 {
	m := regexp.MustCompile(`(?m)^  -` + regexp.QuoteMeta(name) + ` .*\n.*\(default ([^)]+)\)`).FindStringSubmatch(help)
	if m == nil {
		return 0
	}
	d, err := time.ParseDuration(m[1])
	if err != nil {
		return 0
	}
	return ms(d)
}

// writeFleet writes a server list as the bare JSON array vmserve -fleet
// reads.
func writeFleet(path string, servers []vmalloc.Server) error {
	b, err := json.Marshal(servers)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// serveOpts selects how a vmserve is started; the zero value is a volatile
// daemon on default flags.
type serveOpts struct {
	journal       string // journal directory; "" is volatile
	noFsync       bool
	snapshotEvery int // 0 leaves the default
	extra         []string
	env           []string
}

// startServe starts one vmserve on the given fleet.
func startServe(env *runEnv, name string, servers []vmalloc.Server, o serveOpts) (*daemon, error) {
	fleetPath := filepath.Join(env.tmp, name+".fleet.json")
	if err := writeFleet(fleetPath, servers); err != nil {
		return nil, err
	}
	args := []string{"-fleet", fleetPath}
	if o.journal != "" {
		args = append(args, "-journal", o.journal)
		// The binary codec is the format roadmap item 3 keeps; while the
		// flag exists it has to be asked for.
		if env.journalFormatFlag {
			args = append(args, "-journal-format", "binary")
		}
		if o.noFsync {
			args = append(args, "-unsafe-no-fsync")
		}
		if o.snapshotEvery != 0 {
			args = append(args, "-snapshot-every", fmt.Sprint(o.snapshotEvery))
		}
	}
	args = append(args, o.extra...)
	return startDaemon(env.ctx, name, filepath.Join(env.binDir, "vmserve"), env.tmp, o.env, args)
}

// startGate starts a vmgate over the given shards from a versioned
// topology file.
func startGate(env *runEnv, shards []*daemon, extra []string) (*daemon, error) {
	topo := api.Topology{Epoch: 1}
	for _, s := range shards {
		topo.Shards = append(topo.Shards, api.TopologyShard{Name: s.name, URL: s.url})
	}
	b, err := json.Marshal(topo)
	if err != nil {
		return nil, err
	}
	path := filepath.Join(env.tmp, "topology.json")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return nil, err
	}
	return startDaemon(env.ctx, "gate", filepath.Join(env.binDir, "vmgate"), env.tmp, nil,
		append([]string{"-topology", path}, extra...))
}
