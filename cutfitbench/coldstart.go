package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"cutfit"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// coldStart alternates a cold op (ingest the edge-list text, select among
// the paper's six strategies, run pagerank on the winner) with a restore op
// (restore the state a cold op leaves behind from a snapshot, run the same
// pagerank). Both end in the same state, so restore ÷ cold is measured in
// one run.
type coldStart struct {
	cfg      config
	text     []byte
	prof     cutfit.Profile
	winner   cutfit.Strategy
	snapshot []byte
	// setupSe and setupRep are the state and report of the cold op run in
	// set-up; the snapshot is taken of setupSe.
	setupSe  *cutfit.Session
	setupG   *cutfit.Graph
	setupRep *cutfit.RunReport
	ref      *cutfit.RunReport
	persist  []float64 // seconds per snapshot write, set-up and references

	mu    sync.Mutex
	stats phaseStats
}

func setupColdStart(ctx context.Context, cfg config, text []byte) (instance, error) {
	prof, err := cutfit.ProfileFor("pagerank")
	if err != nil {
		return nil, err
	}
	w := &coldStart{cfg: cfg, text: text, prof: prof}
	g, err := cutfit.LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	se := cutfit.NewSession(cutfit.SessionOptions{})
	sel, err := se.Select(g, cutfit.Strategies(), cfg.parts, prof)
	if err != nil {
		return nil, err
	}
	if w.setupRep, err = se.Run(ctx, g, sel.Strategy, cfg.parts, "pagerank", itersFor("pagerank")); err != nil {
		return nil, err
	}
	w.winner, w.setupSe, w.setupG = sel.Strategy, se, g
	if w.snapshot, err = w.persistOnce(); err != nil {
		return nil, err
	}
	return w, nil
}

// persistOnce snapshots the set-up state and records how long it took.
func (w *coldStart) persistOnce() ([]byte, error) {
	var buf bytes.Buffer
	t0 := time.Now()
	if _, err := w.setupSe.SnapshotNamed(&buf, map[string]*cutfit.Graph{"g": w.setupG}); err != nil {
		return nil, fmt.Errorf("snapshot: %w", err)
	}
	w.persist = append(w.persist, time.Since(t0).Seconds())
	return buf.Bytes(), nil
}

func (w *coldStart) references(ctx context.Context) error {
	g, err := cutfit.LoadEdgeList(bytes.NewReader(w.text))
	if err != nil {
		return err
	}
	sel, err := cutfit.Select(g, cutfit.Strategies(), w.cfg.parts, w.prof)
	if err != nil {
		return err
	}
	if sel.Strategy.Name() != w.winner.Name() {
		return fmt.Errorf("set-up selected %s, one-shot selection %s", w.winner.Name(), sel.Strategy.Name())
	}
	if w.ref, err = (&cutfit.Session{}).Run(ctx, g, sel.Strategy, w.cfg.parts, "pagerank", itersFor("pagerank")); err != nil {
		return err
	}
	// Two more snapshot writes, so snap.persist_ms is a median of three.
	for range 2 {
		if _, err := w.persistOnce(); err != nil {
			return err
		}
	}
	return sameReport(w.setupRep, w.ref)
}

func (w *coldStart) op(ctx context.Context, i int, sw *stopwatch) (string, error) {
	if i%2 == 0 {
		return "cold", w.cold(ctx, sw)
	}
	return "restore", w.restore(ctx, sw)
}

func (w *coldStart) cold(ctx context.Context, sw *stopwatch) error {
	var (
		g     *cutfit.Graph
		se    *cutfit.Session
		fresh cutfit.CacheStats
		sel   *cutfit.Selection
		rep   *cutfit.RunReport
	)
	if _, err := sw.time("ingest", func() (err error) {
		g, err = cutfit.LoadEdgeList(bytes.NewReader(w.text))
		return err
	}); err != nil {
		return err
	}
	if _, err := sw.time("select", func() (err error) {
		se = cutfit.NewSession(cutfit.SessionOptions{})
		fresh = se.CacheStats()
		sel, err = se.Select(g, cutfit.Strategies(), w.cfg.parts, w.prof)
		return err
	}); err != nil {
		return err
	}
	if _, err := sw.time("run", func() (err error) {
		rep, err = se.Run(ctx, g, sel.Strategy, w.cfg.parts, "pagerank", itersFor("pagerank"))
		return err
	}); err != nil {
		return err
	}
	w.addStats(se.CacheStats(), cutfit.CacheStats{})
	if fresh.Entries != 0 || fresh.Hits+fresh.Misses+fresh.Waits != 0 {
		return errors.New("cold op did not start from an empty store")
	}
	if sel.Strategy.Name() != w.winner.Name() {
		return fmt.Errorf("selected %s, reference selects %s", sel.Strategy.Name(), w.winner.Name())
	}
	return sameReport(rep, w.ref)
}

func (w *coldStart) restore(ctx context.Context, sw *stopwatch) error {
	var (
		se    *cutfit.Session
		named map[string]*cutfit.Graph
		rep   *cutfit.RunReport
	)
	if _, err := sw.time("restore", func() (err error) {
		se, named, err = cutfit.RestoreSession(bytes.NewReader(w.snapshot), cutfit.SessionOptions{})
		return err
	}); err != nil {
		return err
	}
	g := named["g"]
	if g == nil {
		return errors.New("snapshot lost the graph's name")
	}
	before := se.CacheStats()
	if _, err := sw.time("run", func() (err error) {
		rep, err = se.Run(ctx, g, w.winner, w.cfg.parts, "pagerank", itersFor("pagerank"))
		return err
	}); err != nil {
		return err
	}
	after := se.CacheStats()
	w.addStats(after, before)
	if after.Misses != before.Misses || after.Hits <= before.Hits {
		return errors.New("restore op's first Partition was not a cache hit")
	}
	return sameReport(rep, w.ref)
}

func (w *coldStart) addStats(after, before cutfit.CacheStats) {
	d := storeDelta(before, after)
	w.mu.Lock()
	defer w.mu.Unlock()
	w.stats.storeHits += d.storeHits
	w.stats.storeMisses += d.storeMisses
	w.stats.storeWaits += d.storeWaits
	w.stats.storeDerived += d.storeDerived
	w.stats.storeBytes = d.storeBytes
}

func (w *coldStart) traced(ctx context.Context, i int, tr *tracer) (string, error) {
	if i%2 == 0 {
		return "cold", w.tracedCold(ctx, i, tr)
	}
	return "restore", w.tracedRestore(ctx, i, tr)
}

// tracedCold replays a cold op as the layer calls of LoadEdgeList,
// Session.Select (core.SelectEmpiricallyIn) and Session.Run.
func (w *coldStart) tracedCold(ctx context.Context, i int, tr *tracer) error {
	var (
		winner partition.Strategy
		sum    checkSummary
	)
	_, err := tr.within("op.cold", i, -1, func(root int) error {
		var g *graph.Graph
		if _, err := tr.call("graph.ingest", i, root, func() (err error) {
			g, err = graph.ReadEdgeList(bytes.NewReader(w.text))
			return err
		}); err != nil {
			return err
		}
		var best *partition.Assignment
		if _, err := tr.within("session.select", i, root, func(sel int) error {
			bestVal := 0.0
			for _, s := range cutfit.Strategies() {
				var (
					a *partition.Assignment
					m *metrics.Result
				)
				if _, err := tr.call("partition.assign", i, sel, func() (err error) {
					a, err = partition.Assign(g, s, w.cfg.parts)
					return err
				}); err != nil {
					return err
				}
				if _, err := tr.call("metrics.measure", i, sel, func() (err error) {
					m, err = metrics.FromAssignment(a)
					return err
				}); err != nil {
					return err
				}
				v, err := m.MetricByName(w.prof.Metric)
				if err != nil {
					return err
				}
				if winner == nil || v < bestVal {
					winner, best, bestVal = s, a, v
				}
			}
			return nil
		}); err != nil {
			return err
		}
		_, err := tr.within("session.run", i, root, func(run int) error {
			var pg *pregel.PartitionedGraph
			if _, err := tr.call("pregel.build", i, run, func() (err error) {
				pg, err = pregel.NewPartitionedGraphFromAssignment(best, pregel.BuildOptions{ReuseBuffers: true})
				return err
			}); err != nil {
				return err
			}
			var err error
			sum, err = runEngine(ctx, tr, "engine.pagerank", i, run, g, pg, "pagerank")
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	if winner.Name() != w.winner.Name() {
		return fmt.Errorf("replay selected %s, reference selects %s", winner.Name(), w.winner.Name())
	}
	return sameSummary("pagerank", sum, w.ref)
}

// tracedRestore replays a restore op: RestoreSession, then the store
// lookup and engine call of Session.Run.
func (w *coldStart) tracedRestore(ctx context.Context, i int, tr *tracer) error {
	var sum checkSummary
	_, err := tr.within("op.restore", i, -1, func(root int) error {
		var (
			se    *cutfit.Session
			named map[string]*cutfit.Graph
		)
		if _, err := tr.call("snap.restore", i, root, func() (err error) {
			se, named, err = cutfit.RestoreSession(bytes.NewReader(w.snapshot), cutfit.SessionOptions{})
			return err
		}); err != nil {
			return err
		}
		g := named["g"]
		if g == nil {
			return errors.New("snapshot lost the graph's name")
		}
		_, err := tr.within("session.run", i, root, func(run int) error {
			var pg *cutfit.PartitionedGraph
			if _, err := tr.call("store.resolve", i, run, func() (err error) {
				pg, err = se.Partition(g, w.winner, w.cfg.parts)
				return err
			}); err != nil {
				return err
			}
			var err error
			sum, err = runEngine(ctx, tr, "engine.pagerank", i, run, g, pg, "pagerank")
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	return sameSummary("pagerank", sum, w.ref)
}

func (w *coldStart) begin() {
	w.mu.Lock()
	w.stats = phaseStats{}
	w.mu.Unlock()
}

func (w *coldStart) end() (phaseStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats, nil
}

// extraLayers reports the snapshot figures, which no op span carries.
func (w *coldStart) extraLayers(t *spanTree) map[string]float64 {
	out := map[string]float64{
		"snap.persist_ms":  ms(median(w.persist)),
		"snap.snapshot_mb": float64(len(w.snapshot)) / 1e6,
	}
	ops := t.rootsNamed("op.")
	if in := median(t.sumPerRoot(ops, "graph.ingest")); in > 0 {
		out["graph.ingest_mb_per_s"] = float64(len(w.text)) / 1e6 / in
	}
	// A cold op assigns every edge once per candidate strategy.
	if sec := median(t.sumPerRoot(ops, "partition.assign")); sec > 0 {
		assigned := len(cutfit.Strategies()) * w.setupG.NumEdges()
		out["partition.assign_medges_per_s"] = float64(assigned) / 1e6 / sec
	}
	return out
}

func (w *coldStart) close() {}
