// Command runexp regenerates the execution-time experiments of the paper's
// evaluation: Figures 3–6 (correlation between partitioning metrics and
// execution time for PageRank, Connected Components, Triangle Count and
// SSSP), the best-strategy winners analysis, the granularity comparison,
// and the infrastructure-upgrade experiment (configurations iii and iv).
//
// Usage:
//
//	runexp -alg pagerank|cc|triangles|sssp [-metric CommCost|Cut] [-winners]
//	runexp -infra
//	runexp -all
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"cutfit/internal/algorithms"
	"cutfit/internal/bench"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/report"
)

// buildOpts is the partition-build/engine tuning shared by all experiment
// invocations, set from the -parallelism and -reuse-buffers flags.
var buildOpts pregel.BuildOptions

// stratOverride, when non-empty, replaces the paper's six strategies in
// every figure experiment (the -strategies flag).
var stratOverride []partition.Strategy

// newExperiment builds the default experiment for alg with the shared
// build options and any strategy override applied.
func newExperiment(alg bench.Algorithm) bench.Experiment {
	e := bench.DefaultExperiment(alg)
	e.Build = buildOpts
	if len(stratOverride) > 0 {
		e.Strategies = stratOverride
	}
	return e
}

func main() {
	alg := flag.String("alg", "", "algorithm: pagerank, cc, triangles, sssp")
	metric := flag.String("metric", "", "partitioning metric to correlate (default: paper's choice per algorithm)")
	winners := flag.Bool("winners", false, "also print the best-strategy table")
	plot := flag.Bool("plot", false, "render ASCII scatter plots of the figures")
	csvOut := flag.String("csv", "", "write figure points as CSV to this file")
	infra := flag.Bool("infra", false, "run the infrastructure experiment (configs ii/iii/iv)")
	all := flag.Bool("all", false, "run everything: all four figures, winners, infra")
	parallelism := flag.Int("parallelism", 0, "worker goroutines for partition build and engine phases (0 = GOMAXPROCS)")
	reuse := flag.Bool("reuse-buffers", true, "reuse engine scratch buffers across runs of the same partitioned graph")
	strategies := flag.String("strategies", "", "comma-separated strategy names overriding the paper's six (e.g. 2D,DC,Range,Hybrid:250)")
	flag.Parse()

	buildOpts = pregel.BuildOptions{Parallelism: *parallelism, ReuseBuffers: *reuse}
	if *strategies != "" {
		var err error
		if stratOverride, err = partition.ByNames(*strategies); err != nil {
			fatal(err)
		}
	}

	ctx := context.Background()
	switch {
	case *all:
		for _, a := range bench.Algorithms() {
			if err := runFigure(ctx, a, "", true); err != nil {
				fatal(err)
			}
		}
		if err := runInfra(ctx); err != nil {
			fatal(err)
		}
	case *infra:
		if err := runInfra(ctx); err != nil {
			fatal(err)
		}
	case *alg != "":
		if err := runFigure(ctx, bench.Algorithm(*alg), *metric, *winners); err != nil {
			fatal(err)
		}
		if *plot || *csvOut != "" {
			if err := renderFigure(ctx, bench.Algorithm(*alg), *metric, *plot, *csvOut); err != nil {
				fatal(err)
			}
		}
	default:
		flag.Usage()
		os.Exit(2)
	}
}

// paperMetric returns the metric the paper's figure uses for an algorithm:
// the predictive metric of its registry profile.
func paperMetric(alg bench.Algorithm) (string, error) {
	a, err := algorithms.Lookup(string(alg))
	if err != nil {
		return "", err
	}
	return a.Profile.Metric, nil
}

// figureNames maps algorithms to the paper's figure numbers.
var figureNames = map[bench.Algorithm]string{
	bench.PageRank:            "Figure 3 (PageRank)",
	bench.ConnectedComponents: "Figure 4 (Connected Components)",
	bench.Triangles:           "Figure 5 (Triangle Count)",
	bench.SSSP:                "Figure 6 (SSSP)",
}

// figureName names an algorithm's figure, or the algorithm itself when the
// paper has none for it.
func figureName(alg bench.Algorithm) string {
	if name, ok := figureNames[alg]; ok {
		return name
	}
	return string(alg)
}

func runFigure(ctx context.Context, alg bench.Algorithm, metric string, winners bool) error {
	if metric == "" {
		var err error
		if metric, err = paperMetric(alg); err != nil {
			return err
		}
	}
	fmt.Printf("=== %s: execution time vs %s ===\n", figureName(alg), metric)
	e := newExperiment(alg)
	res, err := e.Run(ctx)
	if err != nil {
		return err
	}
	for _, cfg := range []string{"config-i", "config-ii"} {
		s, err := res.Correlate(metric, cfg)
		if err != nil {
			return err
		}
		if err := bench.WriteCorrelation(os.Stdout, s); err != nil {
			return err
		}
		per, err := res.PerDatasetCorrelation(metric, cfg)
		if err != nil {
			return err
		}
		names := make([]string, 0, len(per))
		for ds := range per {
			names = append(names, ds)
		}
		sort.Strings(names)
		fmt.Printf("Within-dataset correlation (%s):", cfg)
		for _, ds := range names {
			fmt.Printf(" %s=%.2f", ds, per[ds])
		}
		fmt.Println()
		fmt.Println()
	}
	sp := res.GranularitySpeedup("config-i", "config-ii")
	names := make([]string, 0, len(sp))
	for ds := range sp {
		names = append(names, ds)
	}
	sort.Strings(names)
	fmt.Print("Granularity: best(config-i) / best(config-ii) per dataset:")
	for _, ds := range names {
		fmt.Printf(" %s=%.2f", ds, sp[ds])
	}
	fmt.Println()
	if winners {
		fmt.Println()
		fmt.Println("Best strategy per (config, dataset):")
		if err := bench.WriteWinners(os.Stdout, res.Winners()); err != nil {
			return err
		}
	}
	fmt.Println()
	return nil
}

// renderFigure plots the figure's scatter (simulated time vs metric, both
// axes log-scaled like the paper's figures) and/or writes it as CSV.
func renderFigure(ctx context.Context, alg bench.Algorithm, metric string, plot bool, csvPath string) error {
	if metric == "" {
		var err error
		if metric, err = paperMetric(alg); err != nil {
			return err
		}
	}
	e := newExperiment(alg)
	res, err := e.Run(ctx)
	if err != nil {
		return err
	}
	for _, cfg := range []string{"config-i", "config-ii"} {
		s, err := res.Correlate(metric, cfg)
		if err != nil {
			return err
		}
		points := make([]report.Point, 0, len(s.Points))
		for _, p := range s.Points {
			points = append(points, report.Point{X: p.Metric, Y: p.SimSecs, Series: p.Dataset})
		}
		if plot {
			title := fmt.Sprintf("%s: simulated time vs %s (%s, r=%.3f)", figureName(alg), metric, cfg, s.Pearson)
			err := report.Scatter(os.Stdout, points, report.ScatterConfig{
				Title: title, XLabel: metric, YLabel: "secs", LogX: true, LogY: true,
			})
			if err != nil {
				return err
			}
			fmt.Println()
		}
		if csvPath != "" {
			f, err := os.Create(fmt.Sprintf("%s.%s.csv", csvPath, cfg))
			if err != nil {
				return err
			}
			if err := report.WriteCSV(f, points, metric, "simsecs"); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
		}
	}
	return nil
}

func runInfra(ctx context.Context) error {
	fmt.Println("=== Infrastructure experiment (§4): PageRank on follow-dec ===")
	r, err := bench.InfraExperiment(ctx, 10, buildOpts)
	if err != nil {
		return err
	}
	if err := bench.WriteInfra(os.Stdout, r); err != nil {
		return err
	}
	fmt.Println("Paper: config(iii) ≈ -15%, config(iv) ≈ -20% vs config(ii).")
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "runexp:", err)
	os.Exit(1)
}
