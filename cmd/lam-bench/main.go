// Command lam-bench regenerates the paper's evaluation figures
// (Figs. 3A, 3B, 5, 6, 7, 8) on the simulated platform and prints the
// MAPE-vs-training-size series each figure plots.
//
// Usage:
//
//	lam-bench [-fig all|fig3a|fig3b|fig5|fig6|fig7|fig8]
//	          [-machine bluewaters|xeon|edge] [-seed N] [-reps N] [-trees N]
//	          [-workers N] [-csv DIR]
//
// -workers bounds the worker pool used for ensemble fitting and the
// per-figure sweeps (0 = GOMAXPROCS, 1 = fully sequential): a positive
// value sets GOMAXPROCS, so it caps CPU as well as goroutines. Results
// are bit-identical for every value. Figure timing lives in the
// benchmark's paper_figures workload (BENCHMARK.json).
//
// SIGINT/SIGTERM cancel the sweep context: the run stops promptly at
// the next trial boundary instead of dying mid-write, and exits with
// status 130. See EXPERIMENTS.md for the figure catalogue.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"

	"lam"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, fig3a, fig3b, fig5, fig6, fig7, fig8, ext-noise, ext-transfer)")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV into this directory")
	machineName := flag.String("machine", "bluewaters", "machine preset (bluewaters, xeon, edge)")
	seed := flag.Int64("seed", 42, "deterministic seed for simulator noise and sampling")
	reps := flag.Int("reps", 7, "training-set redraws per fraction")
	trees := flag.Int("trees", 100, "ensemble size for tree models")
	workers := flag.Int("workers", 0, "worker pool size for parallel fitting and sweeps (0 = GOMAXPROCS, 1 = sequential)")
	flag.Parse()

	// ^C / SIGTERM cancel the context; the sweeps notice at the next
	// trial boundary. A second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}
	m, err := lam.MachineByName(*machineName)
	if err != nil {
		fatal(err)
	}
	opts := lam.FigureOptions{Machine: m, Seed: *seed, Reps: *reps, Trees: *trees, Workers: *workers}

	ids := []string{*fig}
	if *fig == "all" {
		ids = lam.FigureIDs()
	}

	fmt.Printf("machine: %s  seed: %d  reps: %d  trees: %d  workers: %d\n\n",
		m.Name, *seed, *reps, *trees, runtime.GOMAXPROCS(0))

	// Regenerate every requested figure (concurrently when more than
	// one), then render in input order.
	reports := make([]*lam.Report, len(ids))
	if len(ids) > 1 {
		if reports, err = lam.FiguresCtx(ctx, ids, opts); err != nil {
			fatal(err)
		}
	} else {
		r, err := runOne(ctx, ids[0], opts)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", ids[0], err))
		}
		reports[0] = r
	}
	for i, id := range ids {
		r := reports[i]
		if err := r.Render(os.Stdout); err != nil {
			fatal(err)
		}
		writeCSV(*csvDir, id, r)
	}
}

// writeCSV writes one figure's series into dir (no-op when dir is
// empty).
func writeCSV(dir, id string, r *lam.Report) {
	if dir == "" {
		return
	}
	path := dir + "/" + id + ".csv"
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	if err := r.WriteSeriesCSV(f); err != nil {
		f.Close()
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}

// runOne regenerates one benchmark by id, including the extension
// experiments the figure runner does not know about.
func runOne(ctx context.Context, id string, opts lam.FigureOptions) (*lam.Report, error) {
	switch id {
	case "ext-noise":
		return lam.NoiseSensitivityCtx(ctx, opts, nil)
	case "ext-transfer":
		return lam.HardwareTransferCtx(ctx, opts, nil, nil)
	default:
		return lam.FigureCtx(ctx, id, opts)
	}
}

func fatal(err error) {
	if errors.Is(err, lam.ErrCancelled) {
		fmt.Fprintln(os.Stderr, "lam-bench: interrupted, no figures written:", err)
		os.Exit(130)
	}
	fmt.Fprintln(os.Stderr, "lam-bench:", err)
	os.Exit(1)
}
