package dist

import (
	"context"
	"fmt"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// wireAlg binds one registry algorithm to both halves of a distributed run.
type wireAlg struct {
	// run drives the algorithm from the coordinator.
	run func(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, spec RunSpec) (algorithms.Output, *pregel.RunStats, error)
	// start instantiates the worker's half over an installed shard.
	start func(spec RunSpec, ws *workerShard) (shardRun, error)
}

// degreeFunc is the out-degree lookup the PageRank programs divide by: the
// coordinator backs it with the graph, a worker with its shard's shipped
// degree table.
type degreeFunc = func(graph.VertexID) float64

// bind builds a wire entry from the algorithm's program constructor, its
// vertex and message codecs, and the conversion of final vertex values into
// the registry's typed output. Both halves build the program with the same
// constructor, so SendMsg/MergeMsg/VProg are the identical float operations
// in the identical order on either side of the wire.
func bind[V, M any](prog func(p algorithms.Params, degOf degreeFunc) (pregel.Program[V, M], error), vc Codec[V], mc Codec[M], out func([]V) algorithms.Output) wireAlg {
	return wireAlg{
		run: func(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, spec RunSpec) (algorithms.Output, *pregel.RunStats, error) {
			pr, err := prog(spec.params(), algorithms.GraphDegreeFunc(pg.G))
			if err != nil {
				return algorithms.Output{}, nil, err
			}
			vals, stats, err := runDist(ctx, pool, pg, pr, spec, vc, mc)
			if err != nil {
				return algorithms.Output{}, nil, err
			}
			return out(vals), stats, nil
		},
		start: func(spec RunSpec, ws *workerShard) (shardRun, error) {
			pr, err := prog(spec.params(), ws.degOf)
			if err != nil {
				return nil, err
			}
			return newShardRunT(pr, ws, vc, mc)
		},
	}
}

// wireAlgs is the distributed runtime's algorithm table, keyed by registry
// name; an algorithm without an entry runs local-only.
var wireAlgs = map[string]wireAlg{
	"pagerank": bind[float64, float64](func(p algorithms.Params, degOf degreeFunc) (pregel.Program[float64, float64], error) {
		return algorithms.PageRankProgram(p.Iters, p.ResetProb, degOf)
	}, f64Codec{}, f64Codec{}, func(ranks []float64) algorithms.Output {
		return algorithms.Output{Ranks: ranks}
	}),
	"dynamicpr": bind[algorithms.PRState, float64](func(p algorithms.Params, degOf degreeFunc) (pregel.Program[algorithms.PRState, float64], error) {
		return algorithms.DynamicPageRankProgram(p.Tol, p.ResetProb, p.Iters, degOf)
	}, prStateCodec{}, f64Codec{}, func(vals []algorithms.PRState) algorithms.Output {
		return algorithms.Output{Ranks: algorithms.Ranks(vals)}
	}),
	"cc": bind[graph.VertexID, graph.VertexID](func(p algorithms.Params, _ degreeFunc) (pregel.Program[graph.VertexID, graph.VertexID], error) {
		return algorithms.ConnectedComponentsProgram(p.Iters), nil
	}, vidCodec{}, vidCodec{}, func(labels []graph.VertexID) algorithms.Output {
		return algorithms.Output{Labels: labels}
	}),
}

// params is the registry form of the spec's algorithm parameters.
func (s RunSpec) params() algorithms.Params {
	return algorithms.Params{Iters: s.Iters, Tol: s.Tol, ResetProb: s.ResetProb}
}

// lookupWire resolves an algorithm's wire entry.
func lookupWire(name string) (wireAlg, error) {
	w, ok := wireAlgs[name]
	if !ok {
		return wireAlg{}, fmt.Errorf("dist: algorithm %q does not run distributed", name)
	}
	return w, nil
}

// Distributable reports whether the registry algorithm name runs on a pool.
func Distributable(name string) bool {
	_, ok := wireAlgs[name]
	return ok
}

// Run executes the registry algorithm name with parameters p on the pool,
// bit-identical to the registry's local runner on the same partitioned
// graph.
func Run(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, name string, p algorithms.Params) (algorithms.Output, *pregel.RunStats, error) {
	w, err := lookupWire(name)
	if err != nil {
		return algorithms.Output{}, nil, err
	}
	return w.run(ctx, pool, pg, RunSpec{Algorithm: name, Iters: p.Iters, Tol: p.Tol, ResetProb: p.ResetProb})
}

// PageRank runs static PageRank on the pool, bit-identical to
// algorithms.PageRank.
func PageRank(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, numIter int, resetProb float64) ([]float64, *pregel.RunStats, error) {
	out, stats, err := Run(ctx, pool, pg, "pagerank", algorithms.Params{Iters: numIter, ResetProb: resetProb})
	return out.Ranks, stats, err
}

// ConnectedComponents runs label propagation on the pool, bit-identical to
// algorithms.ConnectedComponents.
func ConnectedComponents(ctx context.Context, pool *Pool, pg *pregel.PartitionedGraph, maxIter int) ([]graph.VertexID, *pregel.RunStats, error) {
	out, stats, err := Run(ctx, pool, pg, "cc", algorithms.Params{Iters: maxIter})
	return out.Labels, stats, err
}
