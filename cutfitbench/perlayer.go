package main

import (
	"context"
	"fmt"
)

// layerMetrics are the per-layer metrics of --trace 1, with their units.
// Every workload reports all of them; a layer the workload does not load
// reads 0.
var layerMetrics = []struct{ name, unit string }{
	{"graph.ingest_ms", "ms"},
	{"graph.ingest_mb_per_s", "MB/s"},
	{"graph.grow_ms", "ms"},
	{"graph.shrink_ms", "ms"},
	{"graph.compactions", "count"},
	{"partition.assign_ms", "ms"},
	{"partition.assign_medges_per_s", "Medges/s"},
	{"partition.extend_ms", "ms"},
	{"metrics.measure_ms", "ms"},
	{"pregel.build_ms", "ms"},
	{"pregel.patch_ms", "ms"},
	{"pregel.rebuild_ms", "ms"},
	{"pregel.patch_over_rebuild", "ratio"},
	{"engine.pagerank_ms", "ms"},
	{"engine.cc_ms", "ms"},
	{"engine.sssp_ms", "ms"},
	{"engine.triangles_ms", "ms"},
	{"engine.supersteps", "count"},
	{"engine.edges_scanned_per_s", "1/s"},
	{"engine.active_edge_share", "share"},
	{"engine.combine_ratio", "ratio"},
	{"engine.broadcast_mb", "MB"},
	{"engine.reduce_mb", "MB"},
	{"store.resolve_ms", "ms"},
	{"store.hit_share", "share"},
	{"store.wait_share", "share"},
	{"store.delta_derived_share", "share"},
	{"store.mb", "MB"},
	{"snap.persist_ms", "ms"},
	{"snap.snapshot_mb", "MB"},
	{"snap.restore_ms", "ms"},
	{"snap.restore_over_cold", "ratio"},
	{"session.run_self_ms", "ms"},
	{"session.select_self_ms", "ms"},
	{"dist.run_ms", "ms"},
	{"dist.local_ms", "ms"},
	{"dist.over_local", "ratio"},
	{"dist.rpcs_per_run", "count"},
	{"dist.rpc_ms.RunStart", "ms"},
	{"dist.rpc_ms.SuperstepExchange", "ms"},
	{"dist.rpc_ms.RunFinish", "ms"},
	{"dist.barrier_ms", "ms"},
	{"dist.wire_mb_per_run", "MB"},
	{"dist.combine_ratio", "ratio"},
	{"dist.shards_shipped", "count"},
	{"dist.fallbacks", "count"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_share", "share"},
	{"op.cold_ms_p50", "ms"},
	{"op.restore_ms_p50", "ms"},
	{"op.pagerank_ms_p50", "ms"},
	{"op.cc_ms_p50", "ms"},
	{"op.sssp_ms_p50", "ms"},
	{"op.triangles_ms_p50", "ms"},
	{"op.append_ms_p50", "ms"},
	{"op.remove_ms_p50", "ms"},
	{"op.failed_op_share", "share"},
	{"op.ops_per_s", "1/s"},
	{"op.kind_ms_p50", "ms"},
	{"op.op_ms_p90", "ms"},
	{"op.wall_over_cpu", "ratio"},
}

// spanLayers maps per-layer metrics to the spans whose per-op self time
// they report (the median over the ops and references that make the call).
var spanLayers = map[string]string{
	"graph.ingest_ms":     "graph.ingest",
	"graph.grow_ms":       "graph.grow",
	"graph.shrink_ms":     "graph.shrink",
	"partition.assign_ms": "partition.assign",
	"partition.extend_ms": "partition.extend",
	"metrics.measure_ms":  "metrics.measure",
	"pregel.build_ms":     "pregel.build",
	"pregel.patch_ms":     "pregel.patch",
	"engine.pagerank_ms":  "engine.pagerank",
	"engine.cc_ms":        "engine.cc",
	"engine.sssp_ms":      "engine.sssp",
	"engine.triangles_ms": "engine.triangles",
	"store.resolve_ms":    "store.resolve",
	"snap.restore_ms":     "snap.restore",
}

// measureTraced interleaves untraced ops, the base of the tracing
// figures, with ops replayed under spans, two of each in turn, so both see
// the same machine; it reports the per-layer metrics.
func measureTraced(ctx context.Context, w workload, cfg config, inst instance) (*result, error) {
	tr := newTracer()
	ph := runPhase(inst, w, cfg.seconds, cfg.minOps, false,
		func(i int, sw *stopwatch) (string, error) {
			if (i/2)%2 == 0 {
				return inst.op(ctx, i, sw)
			}
			sw.traced = true
			return inst.traced(ctx, i, tr)
		})
	if err := tr.write(cfg.spansPath); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	t := newSpanTree(tr.spans)
	res := newResult(ph)
	vals := map[string]float64{}

	all := t.rootsNamed("")
	for metric, name := range spanLayers {
		vals[metric] = ms(median(t.sumPerRoot(all, name)))
	}
	e := tr.engine
	if e.runs > 0 {
		vals["engine.supersteps"] = float64(e.supersteps) / float64(e.runs)
		vals["engine.broadcast_mb"] = float64(e.broadcastBytes) / float64(e.runs) / 1e6
		vals["engine.reduce_mb"] = float64(e.reduceBytes) / float64(e.runs) / 1e6
	}
	if e.seconds > 0 {
		vals["engine.edges_scanned_per_s"] = float64(e.scanned) / e.seconds
	}
	if e.denseEdges > 0 {
		vals["engine.active_edge_share"] = float64(e.active) / float64(e.denseEdges)
	}
	if e.emitted > 0 {
		vals["engine.combine_ratio"] = float64(e.reduceMsgs) / float64(e.emitted)
	}

	st := ph.stats
	if lookups := st.storeHits + st.storeMisses + st.storeWaits; lookups > 0 {
		vals["store.hit_share"] = float64(st.storeHits) / float64(lookups)
		vals["store.wait_share"] = float64(st.storeWaits) / float64(lookups)
	}
	if st.storeMisses > 0 {
		vals["store.delta_derived_share"] = float64(st.storeDerived) / float64(st.storeMisses)
	}
	vals["store.mb"] = float64(st.storeBytes) / 1e6
	vals["graph.compactions"] = float64(st.compactions)

	// Per-kind medians of the untraced phase, and the tracing figures
	// against them, weighted by each kind's share of the mix.
	ops := t.rootsNamed("op.")
	var untraced, traced, layers, runSelf float64
	for _, k := range w.kinds {
		u := median(ph.durations(k.kind))
		vals["op."+k.kind+"_ms_p50"] = ms(u)
		var tot, lay []float64
		for _, r := range t.rootsNamed("op." + k.kind) {
			tot = append(tot, t.dur(r).Seconds())
			lay = append(lay, t.layerTime(r).Seconds())
		}
		untraced += k.share * u
		traced += k.share * median(tot)
		layers += k.share * median(lay)
		if run := ph.calls(k.kind, "run"); len(run) > 0 {
			runSelf += k.share * (median(run) - median(t.childrenTime(t.rootsNamed("op."+k.kind), "session.run")))
		}
	}
	vals["session.run_self_ms"] = ms(runSelf)
	if sel := ph.calls("", "select"); len(sel) > 0 {
		vals["session.select_self_ms"] = ms(median(sel) - median(t.childrenTime(ops, "session.select")))
	}
	if untraced > 0 {
		vals["trace.coverage"] = layers / untraced
		vals["trace.overhead_share"] = traced/untraced - 1
	}
	if cold := vals["op.cold_ms_p50"]; cold > 0 {
		vals["snap.restore_over_cold"] = vals["op.restore_ms_p50"] / cold
	}
	vals["op.failed_op_share"] = float64(res.Failed) / float64(res.Attempted)
	for _, m := range wallMetrics(ph, w) {
		vals["op."+m.name] = m.Value
	}
	for k, v := range inst.extraLayers(t) {
		vals[k] = v
	}

	for _, m := range layerMetrics {
		res.Metrics[m.name] = metric{vals[m.name], m.unit}
	}
	for k := range vals {
		if _, ok := res.Metrics[k]; !ok {
			return nil, fmt.Errorf("per-layer metric %q is not in the list", k)
		}
	}
	res.notes = append(res.notes, fmt.Sprintf("untraced ops %d, traced ops %d, spans %d in %s",
		len(ph.durations("")), len(t.rootsNamed("op.")), len(tr.spans), cfg.spansPath))
	return res, nil
}
