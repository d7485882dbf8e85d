// Command vmtrace converts and analyses VM request traces.
//
// Usage:
//
//	vmtrace stats -in trace.csv            # summarise a CSV trace
//	vmtrace stats -in instance.json        # or the VMs of a JSON instance
//	vmtrace convert -in instance.json -o trace.csv
//	vmtrace convert -in trace.csv -o vms.json
//	vmtrace fit -in trace.csv              # workload.Spec that regenerates it
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"

	"vmalloc/internal/config"
	"vmalloc/internal/model"
	"vmalloc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "vmtrace:", err)
		os.Exit(1)
	}
}

const usage = "vmtrace <stats|convert|fit> [flags], or vmtrace -version"

// run checks the subcommand and parses its flags before it reads any
// input, so -h, --help and an unknown subcommand never wait on stdin.
func run(args []string, w io.Writer) error {
	if len(args) > 0 && (args[0] == "-version" || args[0] == "--version") {
		fmt.Fprintln(w, config.Version())
		return nil
	}
	cmd := ""
	if len(args) > 0 && !strings.HasPrefix(args[0], "-") {
		cmd, args = args[0], args[1:]
	}
	switch cmd {
	case "", "stats", "convert", "fit":
	default:
		return fmt.Errorf("unknown subcommand %q (want stats, convert or fit)", cmd)
	}
	fs := flag.NewFlagSet("vmtrace", flag.ContinueOnError)
	fs.Usage = func() {
		fmt.Fprintln(fs.Output(), "Usage of vmtrace: "+usage)
		fs.PrintDefaults()
	}
	in := fs.String("in", "", "input file: .csv trace or .json instance (default stdin, csv)")
	out := fs.String("o", "", "output file (convert only; extension selects the format)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case cmd == "":
		return errors.New("usage: " + usage)
	case cmd == "convert" && *out == "":
		return fmt.Errorf("convert needs -o")
	}
	vms, err := load(*in)
	if err != nil {
		return err
	}
	switch cmd {
	case "stats":
		return writeStats(w, trace.Analyze(vms))
	case "fit":
		spec := trace.Analyze(vms).FitSpec()
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(spec)
	default:
		return save(*out, vms)
	}
}

func load(path string) ([]model.VM, error) {
	var (
		data []byte
		err  error
	)
	if path == "" {
		data, err = io.ReadAll(os.Stdin)
		if err != nil {
			return nil, err
		}
		return trace.ReadCSV(strings.NewReader(string(data)))
	}
	data, err = os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	if strings.HasSuffix(path, ".json") {
		// Accept either a full instance or a bare VM list.
		var inst model.Instance
		if err := json.Unmarshal(data, &inst); err == nil && len(inst.VMs) > 0 {
			return inst.VMs, nil
		}
		var vms []model.VM
		if err := json.Unmarshal(data, &vms); err != nil {
			return nil, fmt.Errorf("parse %s: %w", path, err)
		}
		return vms, nil
	}
	return trace.ReadCSV(strings.NewReader(string(data)))
}

func save(path string, vms []model.VM) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if strings.HasSuffix(path, ".json") {
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		return enc.Encode(vms)
	}
	return trace.WriteCSV(f, vms)
}

func writeStats(w io.Writer, st trace.Stats) error {
	fmt.Fprintf(w, "requests:            %d\n", st.Count)
	fmt.Fprintf(w, "mean inter-arrival:  %.2f min\n", st.MeanInterArrival)
	fmt.Fprintf(w, "mean length:         %.2f min\n", st.MeanLength)
	fmt.Fprintf(w, "horizon:             %d min\n", st.Horizon)
	fmt.Fprintf(w, "peak concurrency:    %d VMs\n", st.PeakConcurrency)
	fmt.Fprintf(w, "mean demand:         %.2f CU, %.2f GB\n", st.MeanCPU, st.MeanMem)
	classes := make([]string, 0, len(st.ClassMix))
	for c := range st.ClassMix {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	for _, c := range classes {
		fmt.Fprintf(w, "class %-18s %d\n", c+":", st.ClassMix[c])
	}
	return nil
}
