// Command bench is the repository's benchmark: five workloads that drive
// the real vmserve and vmgate binaries over loopback /v1 HTTP (and the
// paper's batch algorithm through the root facade), print every end-to-end
// metric by name and unit, check the answers, and in a separate traced run
// produce the per-layer numbers. See README.md beside this file.
//
// The driver's form, one workload per process:
//
//	bash bench/run.sh --workload serve-batch --seed 1 --seconds 10 --trace 0
//
// prints a report and, as the last line of standard output, one JSON object
// {"correct", "attempted", "failed", "metrics"}. Without --workload every
// workload runs in turn, each in a fresh process.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"
)

func main() {
	os.Exit(realMain())
}

func realMain() int {
	var (
		workload = flag.String("workload", "", "run this one workload and end with the JSON result line (empty: run all, each in a fresh process)")
		seed     = flag.Int64("seed", 1, "seed every input is generated from")
		seconds  = flag.Float64("seconds", defaultSeconds, "how long a run's measured phase lasts")
		trace    = flag.Int("trace", 0, "1: the traced run, which reports the per-layer metrics instead of the end-to-end ones")
		list     = flag.Bool("list", false, "print every workload and metric name and exit")
		aa       = flag.Bool("aa", false, "A/A: run the full set twice on this build and compare each metric's medians and spread with its bound")
	)
	flag.Parse()
	if *list {
		printList(os.Stdout)
		return 0
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	started := time.Now()

	switch {
	case *aa:
		return runAA(ctx, *seconds)
	case *workload == "":
		return runAll(ctx, *seed, *seconds, *trace)
	}
	spec := findWorkload(*workload)
	if spec == nil {
		fmt.Fprintf(os.Stderr, "bench: unknown workload %q (see -list)\n", *workload)
		return 2
	}
	res, err := runOne(ctx, spec, started, *seed, *seconds, fullScale, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	res.print(os.Stdout)
	fmt.Println(res.jsonLine())
	if !res.correct() {
		return 1
	}
	return 0
}

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 15

// fullScale is the benchmark's own size; the smoke test divides every op
// count by 50.
const fullScale = 1

func findWorkload(name string) *workloadSpec {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// printList prints one line per workload and metric: its kind, then its
// name, then what the registry says about it.
func printList(w io.Writer) {
	for _, wl := range workloads {
		fmt.Fprintln(w, "workload", wl.Name)
	}
	for _, m := range endToEnd {
		fmt.Fprintln(w, "end_to_end", m.Name, m.Unit, m.Better, m.Bound)
	}
	for _, m := range perLayer {
		fmt.Fprintln(w, "per_layer", m.Name, m.Unit, m.Better)
	}
}

// runOne performs one run of one workload in this process.
func runOne(ctx context.Context, spec *workloadSpec, started time.Time, seed int64, seconds float64, scale int, traced bool) (*result, error) {
	root, err := findRoot()
	if err != nil {
		return nil, err
	}
	env := &runEnv{
		ctx: ctx, root: root, seed: seed, seconds: seconds, scale: scale, traced: traced,
		conns: min(runtime.NumCPU(), 4),
	}
	if traced {
		env.spans = &spanLog{}
	}
	if env.binDir, err = buildDaemons(ctx, root); err != nil {
		return nil, err
	}
	help := vmserveHelp(env.binDir)
	env.journalFormatFlag = flagListed(help, "journal-format")
	env.batchWindowMS = flagDefaultMS(help, "batch-window")
	if env.tmp, err = newRunDir(root, spec.Name); err != nil {
		return nil, err
	}
	defer os.RemoveAll(env.tmp)
	env.setupOnce = time.Since(started)
	res, err := spec.run(env)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", spec.Name, err)
	}
	res.layer["bench.machine_speed"] = env.cal.speed()
	res.notef("machine speed %.3f of the reference (%d calibration samples)", env.cal.speed(), len(env.cal.spinMS))
	if traced {
		if err := writeSpans(filepath.Join(root, "bench", "out"), spec.Name, env.spans, res.serverSpans); err != nil {
			return nil, err
		}
	}
	return res, nil
}

// result is one run's outcome.
type result struct {
	workload  string
	seed      int64
	traced    bool
	fp        fingerprint
	attempted int
	failed    int
	problems  []string
	notes     []string
	e2e       map[string]float64
	layer     map[string]float64
	// serverSpans are the daemons' spans of a traced run, written out
	// beside the client's.
	serverSpans []clientSpan
}

func newResult(workload string, env *runEnv) *result {
	return &result{
		workload: workload, seed: env.seed, traced: env.traced, fp: takeFingerprint(env.tmp),
		e2e: map[string]float64{}, layer: map[string]float64{},
	}
}

// absorb adds a ledger's op counts and failures to the run's.
func (r *result) absorb(led *ledger) {
	r.attempted += led.attempted
	r.failed += led.failed
	r.problems = append(r.problems, led.problems...)
}

func (r *result) notef(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// report sets an end-to-end time or rate to its value at the reference
// machine's speed (see calibrate.go) and keeps what was measured in the
// report's notes.
func (r *result) report(name, unit string, measured, atReference float64) {
	r.e2e[name] = atReference
	r.notef("%s as measured: %.4f %s", name, measured, unit)
}

// correct reports whether every op succeeded and every check passed.
func (r *result) correct() bool { return r.failed == 0 && r.attempted > 0 }

// metricJSON is one metric in the result line.
type metricJSON struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// jsonLine renders the driver's result line: every end-to-end metric of an
// untraced run, every per-layer metric of a traced one.
func (r *result) jsonLine() string {
	specs, values := endToEnd, r.e2e
	if r.traced {
		specs, values = perLayer, r.layer
	}
	metrics := make(map[string]metricJSON, len(specs))
	for _, m := range specs {
		metrics[m.Name] = metricJSON{Value: values[m.Name], Unit: m.Unit}
	}
	b, _ := json.Marshal(map[string]any{ // a map of numbers and strings always marshals
		"correct":   r.correct(),
		"attempted": r.attempted,
		"failed":    r.failed,
		"metrics":   metrics,
	})
	return string(b)
}

// print writes the human-readable report.
func (r *result) print(w io.Writer) {
	kind := "end-to-end"
	if r.traced {
		kind = "traced, per-layer"
	}
	fmt.Fprintf(w, "== %s (seed %d, %s) ==\n", r.workload, r.seed, kind)
	fmt.Fprintf(w, "   %s\n", r.fp)
	for _, n := range r.notes {
		fmt.Fprintf(w, "   %s\n", n)
	}
	specs, values := endToEnd, r.e2e
	if r.traced {
		specs, values = perLayer, r.layer
	}
	for _, m := range specs {
		fmt.Fprintf(w, "   %-40s %16.4f %-6s (%s is better)\n", m.Name, values[m.Name], m.Unit, m.Better)
	}
	share := 0.0
	if r.attempted > 0 {
		share = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "   %-40s %16.6f %-6s (%d of %d ops)\n", "failed_share", share, "ratio", r.failed, r.attempted)
	for _, p := range r.problems {
		fmt.Fprintf(w, "   FAILED: %s\n", p)
	}
	if r.correct() {
		fmt.Fprintln(w, "   checks: all passed")
	}
}

// subRun runs one workload in a fresh process of this same binary and
// parses its result line.
func subRun(ctx context.Context, workload string, seed int64, seconds float64, trace int, echo bool) (map[string]float64, bool, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, false, err
	}
	cmd := exec.CommandContext(ctx, exe, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", fmt.Sprint(trace))
	cmd.Stderr = os.Stderr
	out, runErr := cmd.Output()
	lines := strings.Split(strings.TrimRight(string(out), "\n"), "\n")
	if echo {
		fmt.Println(strings.Join(lines[:len(lines)-1], "\n"))
	}
	var parsed struct {
		Correct bool                  `json:"correct"`
		Metrics map[string]metricJSON `json:"metrics"`
	}
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &parsed); err != nil {
		if runErr != nil {
			return nil, false, fmt.Errorf("%s seed %d: %w", workload, seed, runErr)
		}
		return nil, false, fmt.Errorf("%s seed %d: no result line: %w", workload, seed, err)
	}
	values := make(map[string]float64, len(parsed.Metrics))
	for k, v := range parsed.Metrics {
		values[k] = v.Value
	}
	return values, parsed.Correct, nil
}

// runAll runs every workload, each in a fresh process, and prints a
// closing table.
func runAll(ctx context.Context, seed int64, seconds float64, trace int) int {
	specs := endToEnd
	if trace == 1 {
		specs = perLayer
	}
	table := map[string]map[string]float64{}
	ok := true
	for _, w := range workloads {
		values, correct, err := subRun(ctx, w.Name, seed, seconds, trace, true)
		if err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			return 1
		}
		ok = ok && correct
		table[w.Name] = values
	}
	fmt.Printf("\n%-40s %-6s", "metric", "unit")
	for _, w := range workloads {
		fmt.Printf(" %16s", w.Name)
	}
	fmt.Println()
	for _, m := range specs {
		fmt.Printf("%-40s %-6s", m.Name, m.Unit)
		for _, w := range workloads {
			fmt.Printf(" %16.4f", table[w.Name][m.Name])
		}
		fmt.Println()
	}
	if !ok {
		fmt.Println("FAILED: at least one workload failed a check")
		return 1
	}
	fmt.Println("every check passed on every workload")
	return 0
}
