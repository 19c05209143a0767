package main

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"runtime"

	"cutfit"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
)

// streamMutate alternates appending a seeded batch of new edges with
// removing the oldest live edges, in equal batches, so |E| stays put; each
// op runs cc on the new generation. It writes where warm-mix reads: Grow
// and Shrink, the store's delta chain, assignment extension and the
// topology patch.
type streamMutate struct {
	cfg   config
	se    *cutfit.Session
	cur   *cutfit.Graph
	verts []cutfit.VertexID
	// live holds the live edges oldest first; removals take its head.
	live  []cutfit.Edge
	batch int

	// rebuild computes an op's reference: a from-scratch one-shot run on
	// the generation the op made.
	rebuild func(ctx context.Context, g *cutfit.Graph) (*cutfit.RunReport, error)

	before      cutfit.CacheStats
	compactions int
}

// streamStrategy is the strategy stream-mutate serves; its hash
// assignment extends over an appended suffix.
var streamStrategy = cutfit.EdgePartition2D()

// batchShare is the size of each append or removal, as a share of |E|.
const batchShare = 0.01

func setupStreamMutate(ctx context.Context, cfg config, text []byte) (instance, error) {
	g, err := cutfit.LoadEdgeList(bytes.NewReader(text))
	if err != nil {
		return nil, err
	}
	w := &streamMutate{
		cfg:   cfg,
		se:    cutfit.NewSession(cutfit.SessionOptions{}),
		cur:   g,
		verts: append([]cutfit.VertexID(nil), g.Vertices()...),
		live:  append([]cutfit.Edge(nil), g.Edges()...),
		batch: max(1, int(batchShare*float64(g.NumEdges()))),
	}
	w.rebuild = func(ctx context.Context, g *cutfit.Graph) (*cutfit.RunReport, error) {
		return (&cutfit.Session{}).Run(ctx, g, streamStrategy, cfg.parts, "cc", itersFor("cc"))
	}
	if _, err := w.se.Run(ctx, g, streamStrategy, cfg.parts, "cc", itersFor("cc")); err != nil {
		return nil, err
	}
	return w, nil
}

// The stream's references are computed per op, by w.rebuild.
func (w *streamMutate) references(context.Context) error { return nil }

// next returns op i's kind and batch: even ops append fresh edges, odd
// ops retract the oldest live ones.
func (w *streamMutate) next(i int) (string, []cutfit.Edge) {
	if i%2 == 0 {
		return "append", randomEdges(rngFor(w.cfg.seed, 2, i), w.verts, w.batch)
	}
	return "remove", append([]cutfit.Edge(nil), w.live[:w.batch]...)
}

// mutate applies op kind to g through the session.
func (w *streamMutate) mutate(kind string, g *cutfit.Graph, batch []cutfit.Edge) (*cutfit.Graph, error) {
	if kind == "append" {
		return w.se.AppendEdges(g, batch)
	}
	return w.se.RemoveEdges(g, batch)
}

// advance makes ng the current generation once op kind is checked.
func (w *streamMutate) advance(kind string, ng *cutfit.Graph, batch []cutfit.Edge) {
	if kind == "append" {
		w.live = append(w.live, batch...)
	} else {
		w.live = w.live[w.batch:]
		if ng.NumEdges() < w.cur.NumEdges() {
			w.compactions++ // the dense edge list was rewritten
		}
	}
	// The old generation is never asked for again; a streaming client
	// drops it rather than leaving it to the cache's LRU bound.
	w.se.Forget(w.cur)
	w.cur = ng
}

func (w *streamMutate) op(ctx context.Context, i int, sw *stopwatch) (string, error) {
	kind, batch := w.next(i)
	var (
		ng  *cutfit.Graph
		rep *cutfit.RunReport
	)
	if _, err := sw.time("mutate", func() (err error) {
		ng, err = w.mutate(kind, w.cur, batch)
		return err
	}); err != nil {
		return kind, err
	}
	if _, err := sw.time("run", func() (err error) {
		rep, err = w.se.Run(ctx, ng, streamStrategy, w.cfg.parts, "cc", itersFor("cc"))
		return err
	}); err != nil {
		return kind, err
	}
	want, err := w.rebuild(ctx, ng)
	if err != nil {
		return kind, fmt.Errorf("rebuild reference: %w", err)
	}
	w.advance(kind, ng, batch)
	err = sameReport(rep, want)
	collectReference()
	return kind, err
}

// collectReference runs a garbage collection once an op's reference is
// checked and dropped. The from-scratch rebuild allocates more than the op
// itself; without it, the collections that rebuild triggers would run into
// the next op, and the live heap they leave would still count the
// reference's topology while the next op is sampled.
func collectReference() { runtime.GC() }

// traced replays the op as the mutation, then Session.Run's assignment
// and topology resolution, each derived through the delta chain unless a
// compaction severed it, and the engine call. Beside it, as a reference,
// the same generation is assigned and built from scratch.
func (w *streamMutate) traced(ctx context.Context, i int, tr *tracer) (string, error) {
	kind, batch := w.next(i)
	var (
		ng  *cutfit.Graph
		got checkSummary
	)
	_, err := tr.within("op."+kind, i, -1, func(root int) error {
		var err error
		if _, err = tr.call("graph."+map[string]string{"append": "grow", "remove": "shrink"}[kind], i, root, func() (err error) {
			ng, err = w.mutate(kind, w.cur, batch)
			return err
		}); err != nil {
			return err
		}
		_, err = tr.within("session.run", i, root, func(run int) error {
			id := tr.begin("partition.extend", i, run)
			d0 := w.se.CacheStats().DeltaDerived
			_, err := w.se.Assignment(ng, streamStrategy, w.cfg.parts)
			if w.se.CacheStats().DeltaDerived == d0 {
				tr.rename(id, "partition.assign") // a compaction severed the chain
			}
			tr.finish(id)
			if err != nil {
				return err
			}
			id = tr.begin("pregel.patch", i, run)
			d0 = w.se.CacheStats().DeltaDerived
			pg, err := w.se.Partition(ng, streamStrategy, w.cfg.parts)
			if w.se.CacheStats().DeltaDerived == d0 {
				tr.rename(id, "pregel.build")
			}
			tr.finish(id)
			if err != nil {
				return err
			}
			got, err = runEngine(ctx, tr, "engine.cc", i, run, ng, pg, "cc")
			return err
		})
		return err
	})
	if err != nil {
		return kind, err
	}
	var want checkSummary
	if _, err := tr.within("ref.rebuild", i, -1, func(root int) error {
		var (
			a   *partition.Assignment
			pg  *pregel.PartitionedGraph
			err error
		)
		if _, err = tr.call("rebuild.assign", i, root, func() (err error) {
			a, err = partition.Assign(ng, streamStrategy, w.cfg.parts)
			return err
		}); err != nil {
			return err
		}
		if _, err = tr.call("rebuild.build", i, root, func() (err error) {
			pg, err = pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{ReuseBuffers: true})
			return err
		}); err != nil {
			return err
		}
		want, err = runEngine(ctx, tr, "rebuild.cc", i, root, ng, pg, "cc")
		return err
	}); err != nil {
		return kind, fmt.Errorf("rebuild reference: %w", err)
	}
	w.advance(kind, ng, batch)
	if !reflect.DeepEqual(got, want) {
		err = fmt.Errorf("patched generation's cc differs from a rebuild\n got: %+v\nwant: %+v", got, want)
	}
	collectReference()
	return kind, err
}

func (w *streamMutate) begin() {
	w.before = w.se.CacheStats()
	w.compactions = 0
}

func (w *streamMutate) end() (phaseStats, error) {
	ps := storeDelta(w.before, w.se.CacheStats())
	ps.compactions = w.compactions
	return ps, nil
}

// extraLayers reports the patch ÷ rebuild ratio over the ops whose
// topology came through the delta chain, with its base.
func (w *streamMutate) extraLayers(t *spanTree) map[string]float64 {
	ops := t.rootsNamed("op.")
	patch := median(t.sumPerRoot(ops, "partition.extend", "pregel.patch"))
	rebuild := median(t.sumPerRoot(t.rootsNamed("ref.rebuild"), "rebuild.assign", "rebuild.build"))
	out := map[string]float64{"pregel.rebuild_ms": ms(rebuild)}
	if rebuild > 0 {
		out["pregel.patch_over_rebuild"] = patch / rebuild
	}
	return out
}

func (w *streamMutate) close() {}
