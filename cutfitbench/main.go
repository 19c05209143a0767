// Command cutfitbench is cutfit's end-to-end benchmark. It generates a
// seeded pocek-like social graph, runs one of four closed-loop workloads
// against the public cutfit API, checks every result against a reference
// computed outside the timed region, and prints its metrics; the last line
// of standard output is one JSON object.
//
//	bash cutfitbench/run.sh --workload warm-mix --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics. With --trace 1 it
// interleaves untraced ops with ops replayed as the exported layer calls
// Session makes, each under a span, and reports per-layer metrics; the
// spans are written to --spans. See README.md for the workloads, the
// metrics and the layers each workload loads.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

func main() {
	var (
		name    = flag.String("workload", "", "workload: "+workloadNames())
		seed    = flag.Uint64("seed", 1, "seed for the graph, the batches and the request mix")
		seconds = flag.Float64("seconds", 20, "length of the measured phase")
		trace   = flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced replay")
		spans   = flag.String("spans", "", "where --trace 1 writes its spans (default .bench_build/trace/<workload>-<seed>.jsonl)")
	)
	flag.Parse()
	w, ok := workloads[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "cutfitbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		os.Exit(2)
	}
	cfg := defaultConfig(*seed, *seconds)
	if *trace == 1 {
		cfg.spansPath = *spans
		if cfg.spansPath == "" {
			cfg.spansPath = filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-%d.jsonl", *name, *seed))
		}
	}
	fmt.Fprintf(os.Stderr, "cutfitbench: %s seed=%d nproc=%d GOMAXPROCS=%d %s\n",
		*name, *seed, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())

	res, err := run(context.Background(), w, cfg, *trace == 1)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cutfitbench:", err)
		os.Exit(2)
	}
	for _, msg := range res.problems {
		fmt.Fprintln(os.Stderr, "cutfitbench: FAIL:", msg)
	}
	printResult(res)
	if !res.Correct {
		os.Exit(1)
	}
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's output; its JSON form is the last line printed.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`

	problems []string
	// notes are human-readable lines printed before the JSON line:
	// metrics the JSON object does not carry, with their sample counts.
	notes []string
}

func printResult(res *result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("%-32s %14.6g %s\n", n, m.Value, m.Unit)
	}
	for _, line := range res.notes {
		fmt.Println(line)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "cutfitbench:", err)
		os.Exit(2)
	}
	fmt.Println(string(out))
}

// run sets the workload up setupReps times, keeps the last instance,
// computes its references and then measures it. setup_s is the median CPU
// time of a set-up: on a VM, its wall time moves with the hypervisor's
// steal by more than the bound a regression check allows.
func run(ctx context.Context, w workload, cfg config, traced bool) (*result, error) {
	var (
		inst          instance
		setups, walls []float64
	)
	for rep := 0; rep < setupReps; rep++ {
		if inst != nil {
			inst.close()
			inst = nil
			runtime.GC()
		}
		t0, cpu0 := time.Now(), processCPU()
		text, err := generate(cfg)
		if err != nil {
			return nil, fmt.Errorf("generating the graph: %w", err)
		}
		inst, err = w.setup(ctx, cfg, text)
		if err != nil {
			return nil, fmt.Errorf("setting up %s: %w", w.name, err)
		}
		setups = append(setups, (processCPU() - cpu0).Seconds())
		walls = append(walls, time.Since(t0).Seconds())
	}
	defer inst.close()
	if err := inst.references(ctx); err != nil {
		return nil, fmt.Errorf("computing references: %w", err)
	}
	runtime.GC()
	if traced {
		return measureTraced(ctx, w, cfg, inst)
	}
	res := measure(ctx, w, cfg, inst)
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.notes = append(res.notes, fmt.Sprintf("%-32s %14.6g s", "setup_wall_s", median(walls)))
	return res, nil
}
