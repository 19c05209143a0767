package main

import (
	"bytes"
	"context"
	"fmt"

	"cutfit"
)

// warmMix serves the paper's four algorithms from one Session whose
// topologies for three strategies are built in set-up, so its time goes to
// the engine and assignment and build do no work.
type warmMix struct {
	cfg    config
	g      *cutfit.Graph
	se     *cutfit.Session
	mix    deck[request]
	refs   map[request]*cutfit.RunReport
	before cutfit.CacheStats
}

// request is one warm-mix request: an index into warmStrategies and an
// algorithm.
type request struct {
	strategy int
	alg      string
}

// warmStrategies are the strategies whose topologies warm-mix serves.
var warmStrategies = []cutfit.Strategy{cutfit.EdgePartition2D(), cutfit.CanonicalRandomVertexCut(), cutfit.DestinationCut()}

// warmClients is warm-mix's number of concurrent callers.
const warmClients = 2

// warmAlgs is the algorithm mix, by weight: pagerank 3, cc 2, sssp 2,
// triangles 1.
var warmAlgs = []string{"pagerank", "pagerank", "pagerank", "cc", "cc", "sssp", "sssp", "triangles"}

// warmCycle is the length of warm-mix's deck: every algorithm of the mix
// on every strategy.
const warmCycle = 3 * 8

func setupWarmMix(ctx context.Context, cfg config, text []byte) (instance, error) {
	g, err := cutfit.LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	w := &warmMix{cfg: cfg, g: g, se: cutfit.NewSession(cutfit.SessionOptions{})}
	w.mix = deck[request]{seed: cfg.seed, stream: 1}
	for si, s := range warmStrategies {
		if _, err := w.se.Partition(g, s, cfg.parts); err != nil {
			return nil, err
		}
		for _, alg := range warmAlgs {
			w.mix.entries = append(w.mix.entries, request{si, alg})
		}
	}
	// The engine keeps per-topology scratch pools that grow to the number
	// of concurrent runs of a program. Run every request as many times at
	// once as there are clients, so the pools are full before timing and
	// the timed phase's heap does not depend on how far they had grown.
	errs := make(chan error, warmClients)
	for range warmClients {
		go func() {
			for _, s := range warmStrategies {
				for _, alg := range []string{"pagerank", "cc", "sssp", "triangles"} {
					if _, err := w.se.Run(ctx, g, s, cfg.parts, alg, itersFor(alg)); err != nil {
						errs <- fmt.Errorf("warming %s on %s: %w", alg, s.Name(), err)
						return
					}
				}
			}
			errs <- nil
		}()
	}
	for range warmClients {
		if err := <-errs; err != nil {
			return nil, err
		}
	}
	return w, nil
}

func (w *warmMix) references(ctx context.Context) error {
	w.refs = map[request]*cutfit.RunReport{}
	for _, r := range w.mix.entries {
		if w.refs[r] != nil {
			continue
		}
		rep, err := (&cutfit.Session{}).Run(ctx, w.g, warmStrategies[r.strategy], w.cfg.parts, r.alg, itersFor(r.alg))
		if err != nil {
			return err
		}
		w.refs[r] = rep
	}
	return nil
}

func (w *warmMix) op(ctx context.Context, i int, sw *stopwatch) (string, error) {
	r := w.mix.at(i)
	var rep *cutfit.RunReport
	if _, err := sw.time("run", func() (err error) {
		rep, err = w.se.Run(ctx, w.g, warmStrategies[r.strategy], w.cfg.parts, r.alg, itersFor(r.alg))
		return err
	}); err != nil {
		return r.alg, err
	}
	return r.alg, sameReport(rep, w.refs[r])
}

// traced replays Session.Run as its store lookup and engine call.
func (w *warmMix) traced(ctx context.Context, i int, tr *tracer) (string, error) {
	r := w.mix.at(i)
	var sum checkSummary
	_, err := tr.within("op."+r.alg, i, -1, func(root int) error {
		_, err := tr.within("session.run", i, root, func(run int) error {
			var pg *cutfit.PartitionedGraph
			if _, err := tr.call("store.resolve", i, run, func() (err error) {
				pg, err = w.se.Partition(w.g, warmStrategies[r.strategy], w.cfg.parts)
				return err
			}); err != nil {
				return err
			}
			var err error
			sum, err = runEngine(ctx, tr, "engine."+r.alg, i, run, w.g, pg, r.alg)
			return err
		})
		return err
	})
	if err != nil {
		return r.alg, err
	}
	return r.alg, sameSummary(r.alg, sum, w.refs[r])
}

func (w *warmMix) begin() { w.before = w.se.CacheStats() }

// end checks that no request of the phase missed the cache: every
// topology was built in set-up.
func (w *warmMix) end() (phaseStats, error) {
	ps := storeDelta(w.before, w.se.CacheStats())
	if ps.storeMisses != 0 {
		return ps, fmt.Errorf("warm-mix: %d cache misses in the timed phase, want 0", ps.storeMisses)
	}
	return ps, nil
}

func (w *warmMix) extraLayers(*spanTree) map[string]float64 { return nil }

func (w *warmMix) close() {}
