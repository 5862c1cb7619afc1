// Command lam-bench regenerates the paper's evaluation figures
// (Figs. 3A, 3B, 5, 6, 7, 8) on the simulated platform and prints the
// MAPE-vs-training-size series each figure plots.
//
// Usage:
//
//	lam-bench [-fig all|fig3a|fig3b|fig5|fig6|fig7|fig8]
//	          [-machine bluewaters|xeon|edge] [-seed N] [-reps N] [-trees N]
//	          [-workers N] [-json]
//
// -workers bounds the worker pool used for ensemble fitting and the
// per-figure sweeps (0 = GOMAXPROCS, 1 = fully sequential); results
// are bit-identical for every value.
//
// -json replaces the text tables with one machine-readable JSON
// document on stdout: run parameters plus, per benchmark, the
// wall-clock ns/op of the regeneration (figures run sequentially in
// this mode so the timings are attributable) and every series' MAPE
// values. BENCH_PR3.json in the repository root is a committed
// snapshot of this output tracking the performance trajectory.
//
// SIGINT/SIGTERM cancel the sweep context: the run stops promptly at
// the next trial boundary instead of dying mid-write, and exits with
// status 130. See EXPERIMENTS.md for the figure catalogue.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"lam"
)

// jsonReport is the machine-readable -json output: run parameters and
// one benchmark entry per regenerated figure.
type jsonReport struct {
	Schema     string          `json:"schema"`
	Machine    string          `json:"machine"`
	Seed       int64           `json:"seed"`
	Reps       int             `json:"reps"`
	Trees      int             `json:"trees"`
	Workers    int             `json:"workers"`
	GoMaxProcs int             `json:"gomaxprocs"`
	Benchmarks []jsonBenchmark `json:"benchmarks"`
}

type jsonBenchmark struct {
	ID    string `json:"id"`
	Title string `json:"title"`
	// NsPerOp is the wall-clock nanoseconds of one full regeneration
	// of this figure (its sweep still uses the worker pool).
	NsPerOp     int64        `json:"ns_per_op"`
	DatasetSize int          `json:"dataset_size"`
	Series      []jsonSeries `json:"series"`
}

type jsonSeries struct {
	Label      string    `json:"label"`
	Fractions  []float64 `json:"fractions"`
	MeanMAPE   []float64 `json:"mean_mape"`
	StdMAPE    []float64 `json:"std_mape"`
	MedianMAPE []float64 `json:"median_mape"`
	Reps       int       `json:"reps"`
}

func toJSONBenchmark(id string, r *lam.Report, elapsed time.Duration) jsonBenchmark {
	b := jsonBenchmark{ID: id, Title: r.Title, NsPerOp: elapsed.Nanoseconds(), DatasetSize: r.DatasetSize}
	for _, s := range r.Series {
		b.Series = append(b.Series, jsonSeries{
			Label: s.Label, Fractions: s.Fractions,
			MeanMAPE: s.MeanMAPE, StdMAPE: s.StdMAPE, MedianMAPE: s.MedianMAPE,
			Reps: s.Reps,
		})
	}
	return b
}

func main() {
	fig := flag.String("fig", "all", "figure to regenerate (all, fig3a, fig3b, fig5, fig6, fig7, fig8, ext-noise, ext-transfer)")
	csvDir := flag.String("csv", "", "also write each figure's series as CSV into this directory")
	machineName := flag.String("machine", "bluewaters", "machine preset (bluewaters, xeon, edge)")
	seed := flag.Int64("seed", 42, "deterministic seed for simulator noise and sampling")
	reps := flag.Int("reps", 7, "training-set redraws per fraction")
	trees := flag.Int("trees", 100, "ensemble size for tree models")
	workers := flag.Int("workers", 0, "worker pool size for parallel fitting and sweeps (0 = GOMAXPROCS, 1 = sequential)")
	jsonOut := flag.Bool("json", false, "emit one machine-readable JSON document (per-benchmark ns/op + MAPE series) instead of text tables")
	flag.Parse()

	// ^C / SIGTERM cancel the context; the sweeps notice at the next
	// trial boundary. A second signal kills the process the hard way.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	lam.SetWorkers(*workers)
	m, err := lam.MachineByName(*machineName)
	if err != nil {
		fatal(err)
	}
	opts := lam.FigureOptions{Machine: m, Seed: *seed, Reps: *reps, Trees: *trees, Workers: *workers}

	ids := []string{*fig}
	if *fig == "all" {
		ids = lam.FigureIDs()
	}

	if *jsonOut {
		// Figures run one after another so each benchmark's wall time
		// is attributable to it; the sweep inside each figure still
		// fans out on the worker pool.
		rep := jsonReport{
			Schema: "lam-bench/v1", Machine: *machineName, Seed: *seed,
			Reps: *reps, Trees: *trees, Workers: lam.Workers(),
			GoMaxProcs: runtime.GOMAXPROCS(0),
		}
		for _, id := range ids {
			start := time.Now()
			r, err := runOne(ctx, id, opts)
			if err != nil {
				fatal(fmt.Errorf("%s: %w", id, err))
			}
			rep.Benchmarks = append(rep.Benchmarks, toJSONBenchmark(id, r, time.Since(start)))
			writeCSV(*csvDir, id, r)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			fatal(err)
		}
		return
	}

	fmt.Printf("machine: %s  seed: %d  reps: %d  trees: %d  workers: %d\n\n",
		m.Name, *seed, *reps, *trees, lam.Workers())

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
// empty); used by both the text and -json output modes.
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
