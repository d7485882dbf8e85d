// Command vmsim regenerates the paper's tables and figures.
//
// Usage:
//
//	vmsim -exp all            # every experiment (the full evaluation)
//	vmsim -exp fig2           # a single experiment
//	vmsim -exp fig2 -quick    # scaled-down sweep
//	vmsim -exp fig2 -csv out/ # also write each table as CSV
//	vmsim -config my.json     # run a custom comparison campaign
//	vmsim -list               # list experiment IDs
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"strings"

	"vmalloc/internal/config"
	"vmalloc/internal/experiments"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "vmsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("vmsim", flag.ContinueOnError)
	var (
		exp     = fs.String("exp", "all", "experiment ID to run, or \"all\"")
		quick   = fs.Bool("quick", false, "scaled-down sweeps (fewer points and seeds)")
		seeds   = fs.Int("seeds", 0, "random runs per data point (0 = paper default of 5)")
		csv     = fs.String("csv", "", "directory to write per-table CSV files into")
		svg     = fs.String("svg", "", "directory to write per-figure SVG charts into")
		ascii   = fs.Bool("ascii", false, "also print ASCII plots of each figure")
		list    = fs.Bool("list", false, "list experiment IDs and exit")
		cfgIn   = fs.String("config", "", "run a custom JSON campaign (see internal/config) instead of paper experiments")
		version = fs.Bool("version", false, "print the build version and exit")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *version {
		fmt.Println(config.Version())
		return nil
	}
	if *list {
		for _, e := range experiments.All() {
			fmt.Printf("%-10s %s\n", e.ID, e.Title)
		}
		return nil
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt)
	defer stop()
	if *cfgIn != "" {
		return runCampaign(ctx, *cfgIn)
	}
	var selected []experiments.Experiment
	if *exp == "all" {
		selected = experiments.All()
	} else {
		for _, id := range strings.Split(*exp, ",") {
			e, err := experiments.ByID(strings.TrimSpace(id))
			if err != nil {
				return err
			}
			selected = append(selected, e)
		}
	}
	opts := experiments.Options{Quick: *quick, Seeds: *seeds}
	for _, e := range selected {
		res, err := e.Run(ctx, opts)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		if _, err := res.WriteTo(os.Stdout); err != nil {
			return err
		}
		if *ascii {
			for i := range res.Charts {
				fmt.Println(res.Charts[i].ASCII(72, 16))
			}
		}
		if *csv != "" {
			if err := writeCSVs(*csv, res); err != nil {
				return err
			}
		}
		if *svg != "" {
			if err := writeSVGs(*svg, res); err != nil {
				return err
			}
		}
	}
	return nil
}

func runCampaign(ctx context.Context, path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	campaign, err := config.Load(f)
	if err != nil {
		return err
	}
	out, err := campaign.Run(ctx)
	if err != nil {
		return err
	}
	return out.WriteText(os.Stdout)
}

func writeSVGs(dir string, res *experiments.Result) error {
	if len(res.Charts) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range res.Charts {
		name := fmt.Sprintf("%s_%d.svg", res.ID, i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(res.Charts[i].SVG()), 0o644); err != nil {
			return err
		}
	}
	return nil
}

func writeCSVs(dir string, res *experiments.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for i := range res.Tables {
		tab := &res.Tables[i]
		name := fmt.Sprintf("%s_%d.csv", res.ID, i)
		if err := os.WriteFile(filepath.Join(dir, name), []byte(tab.CSV()), 0o644); err != nil {
			return err
		}
	}
	return nil
}
