package main

import (
	"bufio"
	"bytes"
	"context"
	"fmt"
	"net/http/httptest"
	"strconv"
	"strings"

	"cutfit"
	"cutfit/internal/algorithms"
	"cutfit/internal/dist"
)

// dist2W alternates pagerank and cc on a Session attached to two
// in-process workers behind loopback HTTP servers; the 2D topology's
// shards are shipped in set-up. It is the only workload that loads
// internal/dist: frames, RPCs and the superstep barrier.
type dist2W struct {
	cfg     config
	g       *cutfit.Graph
	se      *cutfit.Session
	pool    *cutfit.WorkerPool
	servers []*httptest.Server
	refs    map[string]*cutfit.RunReport

	before      promSample
	storeBefore cutfit.CacheStats
	fallbacks   float64
	last        promSample // counter changes over the latest phase
}

var distStrategy = cutfit.EdgePartition2D()

// distWorkers is the cluster size.
const distWorkers = 2

func setupDist2W(ctx context.Context, cfg config, text []byte) (instance, error) {
	g, err := cutfit.LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	w := &dist2W{cfg: cfg, g: g, se: cutfit.NewSession(cutfit.SessionOptions{})}
	urls := make([]string, distWorkers)
	for i := range urls {
		srv := httptest.NewServer(dist.NewWorker().Handler())
		w.servers = append(w.servers, srv)
		urls[i] = srv.URL
	}
	w.pool = cutfit.NewWorkerPool(urls)
	w.se.AttachWorkers(w.pool)
	// The first run ships the shards; one of each kind warms both.
	for _, alg := range []string{"pagerank", "cc"} {
		before := scrape()
		if _, err := w.se.Run(ctx, g, distStrategy, cfg.parts, alg, itersFor(alg)); err != nil {
			w.close()
			return nil, err
		}
		if err := checkDistributed(before, scrape()); err != nil {
			w.close()
			return nil, err
		}
	}
	return w, nil
}

func (w *dist2W) references(ctx context.Context) error {
	w.refs = map[string]*cutfit.RunReport{}
	for _, alg := range []string{"pagerank", "cc"} {
		rep, err := (&cutfit.Session{}).Run(ctx, w.g, distStrategy, w.cfg.parts, alg, itersFor(alg))
		if err != nil {
			return err
		}
		w.refs[alg] = rep
	}
	return nil
}

func distAlg(i int) string {
	if i%2 == 0 {
		return "pagerank"
	}
	return "cc"
}

// checkDistributed is the fallback guard: between two scrapes exactly one
// run went to the cluster and none fell back to the local engine. A
// fallback returns a correct answer faster, so without this guard a
// broken cluster would read as a speed-up.
func checkDistributed(before, after promSample) error {
	d := after.sub(before)
	if fb := d[`cutfit_dist_runs_total{mode="fallback"}`]; fb != 0 {
		return fmt.Errorf("%g distributed runs fell back to the local engine", fb)
	}
	if n := d[`cutfit_dist_runs_total{mode="distributed"}`]; n != 1 {
		return fmt.Errorf("%g runs completed on the cluster, want 1", n)
	}
	return nil
}

func (w *dist2W) op(ctx context.Context, i int, sw *stopwatch) (string, error) {
	alg := distAlg(i)
	before := scrape()
	var rep *cutfit.RunReport
	if _, err := sw.time("run", func() (err error) {
		rep, err = w.se.Run(ctx, w.g, distStrategy, w.cfg.parts, alg, itersFor(alg))
		return err
	}); err != nil {
		return alg, err
	}
	if err := checkDistributed(before, scrape()); err != nil {
		return alg, err
	}
	return alg, sameReport(rep, w.refs[alg])
}

// traced replays Session.Run as the store lookup and the distributed
// call, and runs the local engine on the same topology beside it as the
// base of dist.over_local.
func (w *dist2W) traced(ctx context.Context, i int, tr *tracer) (string, error) {
	alg := distAlg(i)
	var (
		pg   *cutfit.PartitionedGraph
		vals any
		st   *cutfit.RunStats
	)
	_, err := tr.within("op."+alg, i, -1, func(root int) error {
		_, err := tr.within("session.run", i, root, func(run int) error {
			if _, err := tr.call("store.resolve", i, run, func() (err error) {
				pg, err = w.se.Partition(w.g, distStrategy, w.cfg.parts)
				return err
			}); err != nil {
				return err
			}
			_, err := tr.call("dist."+alg, i, run, func() (err error) {
				if alg == "pagerank" {
					vals, st, err = dist.PageRank(ctx, w.pool, pg, itersFor(alg), algorithms.DefaultResetProb)
				} else {
					vals, st, err = dist.ConnectedComponents(ctx, w.pool, pg, itersFor(alg))
				}
				return err
			})
			return err
		})
		return err
	})
	if err != nil {
		return alg, err
	}
	if err := sameSummary(alg, summarize(w.g, vals, st), w.refs[alg]); err != nil {
		return alg, err
	}
	var local checkSummary
	if _, err := tr.within("ref.local", i, -1, func(root int) error {
		var err error
		local, err = runEngine(ctx, tr, "engine."+alg, i, root, w.g, pg, alg)
		return err
	}); err != nil {
		return alg, err
	}
	return alg, sameSummary(alg, local, w.refs[alg])
}

func (w *dist2W) begin() {
	w.before = scrape()
	w.storeBefore = w.se.CacheStats()
}

func (w *dist2W) end() (phaseStats, error) {
	w.last = scrape().sub(w.before)
	w.fallbacks += w.last[`cutfit_dist_runs_total{mode="fallback"}`]
	return storeDelta(w.storeBefore, w.se.CacheStats()), nil
}

// distRPCs are the RPCs every distributed run makes.
var distRPCs = []string{"RunStart", "SuperstepExchange", "RunFinish"}

// extraLayers reports the dist counters of the traced phase and the
// distributed ÷ local ratio with its base.
func (w *dist2W) extraLayers(t *spanTree) map[string]float64 {
	d := w.last
	runs := d[`cutfit_dist_runs_total{mode="distributed"}`]
	out := map[string]float64{
		"dist.fallbacks":      w.fallbacks,
		"dist.shards_shipped": d[`cutfit_dist_shards_shipped_total{kind="full"}`] + d[`cutfit_dist_shards_shipped_total{kind="delta"}`],
	}
	if runs > 0 {
		var rpcs float64
		for _, rpc := range distRPCs {
			rpcs += d[`cutfit_dist_rpc_seconds_count{rpc="`+rpc+`"}`]
		}
		out["dist.rpcs_per_run"] = rpcs / runs
		out["dist.wire_mb_per_run"] = (d[`cutfit_dist_bytes_total{direction="broadcast"}`] + d[`cutfit_dist_bytes_total{direction="reduce"}`]) / runs / 1e6
	}
	for _, rpc := range distRPCs {
		if n := d[`cutfit_dist_rpc_seconds_count{rpc="`+rpc+`"}`]; n > 0 {
			out["dist.rpc_ms."+rpc] = ms(d[`cutfit_dist_rpc_seconds_sum{rpc="`+rpc+`"}`] / n)
		}
	}
	if n := d["cutfit_dist_barrier_seconds_count"]; n > 0 {
		out["dist.barrier_ms"] = ms(d["cutfit_dist_barrier_seconds_sum"] / n)
	}
	if pre := d["cutfit_dist_msgs_precombine_total"]; pre > 0 {
		out["dist.combine_ratio"] = d["cutfit_dist_msgs_postcombine_total"] / pre
	}
	ops, refs := t.rootsNamed("op."), t.rootsNamed("ref.local")
	var run, local float64
	for _, alg := range []string{"pagerank", "cc"} {
		run += median(t.sumPerRoot(ops, "dist."+alg))
		local += median(t.sumPerRoot(refs, "engine."+alg))
	}
	out["dist.run_ms"] = ms(run / 2)
	out["dist.local_ms"] = ms(local / 2)
	if local > 0 {
		out["dist.over_local"] = run / local
	}
	return out
}

func (w *dist2W) close() {
	for _, srv := range w.servers {
		srv.Close()
	}
}

// promSample is one scrape of cutfit.WriteMetrics: every series, keyed by
// its name and labels as printed.
type promSample map[string]float64

func scrape() promSample {
	var buf bytes.Buffer
	if err := cutfit.WriteMetrics(&buf); err != nil {
		panic(fmt.Sprintf("cutfitbench: writing metrics to a buffer: %v", err))
	}
	out := promSample{}
	sc := bufio.NewScanner(&buf)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// sub returns the per-series change from before to s.
func (s promSample) sub(before promSample) promSample {
	out := promSample{}
	for k, v := range s {
		out[k] = v - before[k]
	}
	return out
}
