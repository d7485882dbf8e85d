package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// runEnv is everything one benchmark run shares: where the repo is, where
// the daemons were built, the run's scratch directory and its options.
type runEnv struct {
	ctx    context.Context
	root   string // repo root: the directory holding BENCHMARK.json
	binDir string // built daemons
	// journalFormatFlag: vmserve still has -journal-format, so the binary
	// codec has to be asked for.
	journalFormatFlag bool
	// batchWindowMS is vmserve's default -batch-window, which every admit
	// call waits out: a timer, so the one part of a call that the conversion
	// to reference speed (calibrate.go) leaves alone.
	batchWindowMS float64
	tmp           string // per-run scratch, removed when the run ends
	seed          int64
	seconds       float64 // how long the measured phase lasts
	scale         int     // divides every op count; 1 is the benchmark, 50 the smoke test
	traced        bool
	conns         int // closed-loop connections: min(nproc, 4)
	// setupOnce accumulates the one-time set-up (build, input generation);
	// per-round set-up is added by the workloads.
	setupOnce time.Duration
	spans     *spanLog // client spans of a traced run, nil otherwise
	cal       calibration
}

// findRoot walks up from the working directory to the directory that holds
// BENCHMARK.json and the root module.
func findRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if fileExists(filepath.Join(dir, "BENCHMARK.json")) && fileExists(filepath.Join(dir, "go.mod")) {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", errors.New("bench: no directory above the working directory holds BENCHMARK.json and go.mod; run from the repo")
		}
		dir = parent
	}
}

func fileExists(p string) bool {
	_, err := os.Stat(p)
	return err == nil
}

// buildDaemons compiles vmserve and vmgate from the checkout's source. It
// runs on every invocation: the go tool decides whether the binaries are
// stale, the benchmark never trusts one that is lying around.
func buildDaemons(ctx context.Context, root string) (string, error) {
	binDir := filepath.Join(root, ".bench_build", "bin")
	if err := os.MkdirAll(binDir, 0o755); err != nil {
		return "", err
	}
	cmd := exec.CommandContext(ctx, "go", "build", "-o", binDir+string(filepath.Separator), "./cmd/vmserve", "./cmd/vmgate")
	cmd.Dir = root
	if out, err := cmd.CombinedOutput(); err != nil {
		return "", fmt.Errorf("bench: go build of the daemons: %w\n%s", err, out)
	}
	return binDir, nil
}

// newRunDir makes the run's scratch directory inside the checkout.
func newRunDir(root, workload string) (string, error) {
	base := filepath.Join(root, ".bench_build", "run")
	if err := os.MkdirAll(base, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(base, workload+"-")
}

// fingerprint is the machine description every report carries.
type fingerprint struct {
	NProc      int
	GoMaxProcs string // what the daemons run with
	GoVersion  string
	Kernel     string
	JournalFS  string
}

func takeFingerprint(journalDir string) fingerprint {
	fp := fingerprint{
		NProc:      runtime.NumCPU(),
		GoMaxProcs: os.Getenv("GOMAXPROCS"),
		GoVersion:  runtime.Version(),
		JournalFS:  fsType(journalDir),
	}
	if fp.GoMaxProcs == "" {
		fp.GoMaxProcs = fmt.Sprintf("%d (default: nproc)", fp.NProc)
	}
	var u syscall.Utsname
	if syscall.Uname(&u) == nil {
		fp.Kernel = utsString(u.Sysname[:]) + " " + utsString(u.Release[:])
	}
	return fp
}

func (fp fingerprint) String() string {
	s := fmt.Sprintf("nproc=%d daemon-GOMAXPROCS=%s go=%s kernel=%q journal-fs=%s",
		fp.NProc, fp.GoMaxProcs, fp.GoVersion, fp.Kernel, fp.JournalFS)
	if fp.JournalFS == "tmpfs" || fp.JournalFS == "ramfs" {
		s += " (memory-backed: cluster.fsync_ms_* are the sandbox's, not a device's)"
	}
	return s
}

func utsString(f []int8) string {
	b := make([]byte, 0, len(f))
	for _, c := range f {
		if c == 0 {
			break
		}
		b = append(b, byte(c))
	}
	return string(b)
}

// fsType names the filesystem a directory lives on, from its statfs magic.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext4"
	case 0x01021994:
		return "tmpfs"
	case 0x858458f6:
		return "ramfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	case 0x2fc12fc1:
		return "zfs"
	}
	return fmt.Sprintf("0x%x", uint32(st.Type))
}

// procSample is one reading of a process's counters from /proc.
type procSample struct {
	cpu        time.Duration // user + system
	hwmKB      int64         // VmHWM: peak resident set
	writeBytes int64         // bytes this process caused to be sent to storage
}

// clockTick is USER_HZ; Linux has fixed it at 100 on every architecture Go
// supports.
const clockTick = 10 * time.Millisecond

func readProc(pid int) (procSample, error) {
	var s procSample
	stat, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return s, err
	}
	// The command name may hold spaces; fields are counted after the ")".
	rest := string(stat)
	if i := strings.LastIndexByte(rest, ')'); i >= 0 {
		rest = rest[i+1:]
	}
	f := strings.Fields(rest)
	if len(f) < 13 {
		return s, fmt.Errorf("bench: short /proc/%d/stat", pid)
	}
	utime, _ := strconv.ParseInt(f[11], 10, 64)
	stime, _ := strconv.ParseInt(f[12], 10, 64)
	s.cpu = time.Duration(utime+stime) * clockTick
	if status, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid)); err == nil {
		s.hwmKB = procField(string(status), "VmHWM:")
	}
	if io, err := os.ReadFile(fmt.Sprintf("/proc/%d/io", pid)); err == nil {
		s.writeBytes = procField(string(io), "write_bytes:")
	}
	return s, nil
}

func procField(text, key string) int64 {
	for _, line := range strings.Split(text, "\n") {
		if strings.HasPrefix(line, key) {
			f := strings.Fields(line[len(key):])
			if len(f) > 0 {
				n, _ := strconv.ParseInt(f[0], 10, 64)
				return n
			}
		}
	}
	return 0
}

// selfCPU is the bench process's own user+system time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	if syscall.Getrusage(syscall.RUSAGE_SELF, &ru) != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
