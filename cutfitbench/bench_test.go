package main

import (
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"cutfit"
)

// tinyConfig runs each workload on a ~4K-edge graph at 8 partitions, for
// the minimum op count: enough that every op kind of every mix runs both
// untraced and traced.
func tinyConfig(t *testing.T) config {
	cfg := defaultConfig(7, 0)
	cfg.scale, cfg.edgeFactor, cfg.parts = 9, 8, 8
	cfg.minOps = 96
	cfg.spansPath = filepath.Join(t.TempDir(), "spans.jsonl")
	return cfg
}

var endToEnd = map[string]string{
	"setup_s": "s", "peak_heap_mb": "MB", "cpu_ms_per_op": "ms", "alloc_mb_per_op": "MB",
}

// loaded lists, per workload, the per-layer metrics that must be non-zero
// because the workload loads that layer.
var loaded = map[string][]string{
	"cold-start": {
		"graph.ingest_ms", "graph.ingest_mb_per_s", "partition.assign_ms", "partition.assign_medges_per_s",
		"metrics.measure_ms", "pregel.build_ms", "engine.pagerank_ms", "store.hit_share",
		"snap.persist_ms", "snap.snapshot_mb", "snap.restore_ms", "snap.restore_over_cold",
		"op.cold_ms_p50", "op.restore_ms_p50",
	},
	"warm-mix": {
		"engine.pagerank_ms", "engine.cc_ms", "engine.sssp_ms", "engine.triangles_ms", "store.hit_share",
		"op.pagerank_ms_p50", "op.cc_ms_p50", "op.sssp_ms_p50", "op.triangles_ms_p50",
	},
	"stream-mutate": {
		"graph.grow_ms", "graph.shrink_ms", "partition.extend_ms", "pregel.patch_ms", "pregel.rebuild_ms",
		"pregel.patch_over_rebuild", "engine.cc_ms", "store.delta_derived_share",
		"op.append_ms_p50", "op.remove_ms_p50",
	},
	"dist-2w": {
		"dist.run_ms", "dist.local_ms", "dist.over_local", "dist.rpcs_per_run", "dist.rpc_ms.RunStart",
		"dist.rpc_ms.SuperstepExchange", "dist.rpc_ms.RunFinish", "dist.barrier_ms", "dist.wire_mb_per_run",
		"dist.combine_ratio", "engine.pagerank_ms", "engine.cc_ms", "op.pagerank_ms_p50", "op.cc_ms_p50",
	},
}

func TestWorkloadsReportEveryMetric(t *testing.T) {
	ctx := context.Background()
	for name, w := range workloads {
		t.Run(name, func(t *testing.T) {
			cfg := tinyConfig(t)
			res, err := run(ctx, w, cfg, false)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < cfg.minOps {
				t.Fatalf("untraced run: correct=%v failed=%d attempted=%d: %v", res.Correct, res.Failed, res.Attempted, res.problems)
			}
			if len(res.Metrics) != len(endToEnd) {
				t.Errorf("untraced run reports %d metrics, want %d", len(res.Metrics), len(endToEnd))
			}
			for m, unit := range endToEnd {
				if got := res.Metrics[m]; got.Unit != unit || got.Value <= 0 {
					t.Errorf("%s = %+v, want a positive value in %s", m, got, unit)
				}
			}

			res, err = run(ctx, w, cfg, true)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("traced run: correct=%v failed=%d: %v", res.Correct, res.Failed, res.problems)
			}
			if len(res.Metrics) != len(layerMetrics) {
				t.Errorf("traced run reports %d metrics, want %d", len(res.Metrics), len(layerMetrics))
			}
			for _, m := range layerMetrics {
				if got, ok := res.Metrics[m.name]; !ok || got.Unit != m.unit {
					t.Errorf("%s = %+v, want unit %s", m.name, got, m.unit)
				}
			}
			for _, m := range append(loaded[name], "trace.coverage", "op.ops_per_s", "op.kind_ms_p50", "op.op_ms_p90", "op.wall_over_cpu") {
				if res.Metrics[m].Value <= 0 {
					t.Errorf("%s = %v, want > 0 on %s", m, res.Metrics[m].Value, name)
				}
			}
			for _, k := range w.kinds {
				if res.Metrics["op."+k.kind+"_ms_p50"].Value <= 0 {
					t.Errorf("no %s op ran", k.kind)
				}
			}
		})
	}
}

// TestLedgerMatchesProgram checks BENCHMARK.json at the repository root
// against the workloads and metrics this program reports.
func TestLedgerMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var ledger struct {
		Workloads []entry
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &ledger); err != nil {
		t.Fatal(err)
	}
	if len(ledger.Workloads) != len(workloads) {
		t.Errorf("ledger lists %d workloads, program has %d", len(ledger.Workloads), len(workloads))
	}
	for _, w := range ledger.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("ledger workload %q is not in the program", w.Name)
		}
	}
	if len(ledger.EndToEnd) != len(endToEnd) {
		t.Errorf("ledger lists %d end-to-end metrics, program reports %d", len(ledger.EndToEnd), len(endToEnd))
	}
	for _, m := range ledger.EndToEnd {
		if endToEnd[m.Name] != m.Unit {
			t.Errorf("ledger end-to-end metric %s in %q, program reports %q", m.Name, m.Unit, endToEnd[m.Name])
		}
	}
	if len(ledger.PerLayer) != len(layerMetrics) {
		t.Fatalf("ledger lists %d per-layer metrics, program reports %d", len(ledger.PerLayer), len(layerMetrics))
	}
	for i, m := range ledger.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("ledger per-layer metric %d is %+v, program reports %+v", i, m, layerMetrics[i])
		}
	}
}

// setUp returns a workload instance with its references computed.
func setUp(t *testing.T, name string) (instance, config) {
	t.Helper()
	cfg := tinyConfig(t)
	text, err := generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := workloads[name].setup(context.Background(), cfg, text)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(inst.close)
	if err := inst.references(context.Background()); err != nil {
		t.Fatal(err)
	}
	return inst, cfg
}

// mustFail runs inst untraced and traced and requires both to report
// failed ops whose messages contain want.
func mustFail(t *testing.T, name string, inst instance, cfg config, want string) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		var res *result
		if traced {
			var err error
			if res, err = measureTraced(context.Background(), workloads[name], cfg, inst); err != nil {
				t.Fatal(err)
			}
		} else {
			res = measure(context.Background(), workloads[name], cfg, inst)
		}
		if res.Correct || res.Failed == 0 {
			t.Fatalf("traced=%v: correct=%v failed=%d, want a failure", traced, res.Correct, res.Failed)
		}
		if !strings.Contains(strings.Join(res.problems, "\n"), want) {
			t.Fatalf("traced=%v: problems %q do not mention %q", traced, res.problems, want)
		}
	}
}

func TestOracleCatchesPerturbedReferences(t *testing.T) {
	t.Run("cold-start", func(t *testing.T) {
		inst, cfg := setUp(t, "cold-start")
		inst.(*coldStart).ref.TopRanks[0].Rank *= 1 + 1e-12
		mustFail(t, "cold-start", inst, cfg, "differs from its reference")
	})
	t.Run("warm-mix", func(t *testing.T) {
		inst, cfg := setUp(t, "warm-mix")
		for _, rep := range inst.(*warmMix).refs {
			rep.Supersteps++
		}
		mustFail(t, "warm-mix", inst, cfg, "differs from its reference")
	})
	t.Run("stream-mutate", func(t *testing.T) {
		inst, cfg := setUp(t, "stream-mutate")
		w := inst.(*streamMutate)
		rebuild := w.rebuild
		w.rebuild = func(ctx context.Context, g *cutfit.Graph) (*cutfit.RunReport, error) {
			rep, err := rebuild(ctx, g)
			if err == nil {
				rep.Components++
			}
			return rep, err
		}
		// The traced replay checks the patched topology against a rebuild
		// it makes itself, so only the untraced run uses w.rebuild.
		res := measure(context.Background(), workloads["stream-mutate"], cfg, inst)
		if res.Correct || res.Failed != res.Attempted {
			t.Fatalf("correct=%v failed=%d of %d, want every op failed", res.Correct, res.Failed, res.Attempted)
		}
	})
	t.Run("dist-2w", func(t *testing.T) {
		inst, cfg := setUp(t, "dist-2w")
		inst.(*dist2W).refs["cc"].Components++
		mustFail(t, "dist-2w", inst, cfg, "differs from its reference")
	})
}

func TestDistFallbackGuard(t *testing.T) {
	inst, cfg := setUp(t, "dist-2w")
	dead := httptest.NewServer(nil)
	deadURL := dead.URL
	dead.Close()
	inst.(*dist2W).se.AttachWorkers(cutfit.NewWorkerPool([]string{deadURL}))
	prev := slog.Default()
	slog.SetDefault(slog.New(slog.NewTextHandler(io.Discard, nil))) // one fallback error per op
	defer slog.SetDefault(prev)
	// The fallback answers correctly; only the guard sees that the run
	// never reached the cluster.
	res := measure(context.Background(), workloads["dist-2w"], cfg, inst)
	if res.Correct || res.Failed != res.Attempted {
		t.Fatalf("correct=%v failed=%d of %d, want every op failed", res.Correct, res.Failed, res.Attempted)
	}
	if !strings.Contains(strings.Join(res.problems, "\n"), "fell back to the local engine") {
		t.Fatalf("problems %q do not name the fallback", res.problems)
	}
}

func TestWarmMixMissGuard(t *testing.T) {
	inst, cfg := setUp(t, "warm-mix")
	w := inst.(*warmMix)
	w.se.Forget(w.g) // the next requests must rebuild: cache misses
	res := measure(context.Background(), workloads["warm-mix"], cfg, inst)
	if res.Correct || !strings.Contains(strings.Join(res.problems, "\n"), "cache misses in the timed phase") {
		t.Fatalf("correct=%v problems=%q, want the miss guard to trip", res.Correct, res.problems)
	}
}
