// Package algorithms implements the four analytics computations of the
// paper's evaluation — PageRank, Connected Components, Triangle Count and
// Single-Source Shortest Paths — on the Pregel engine, mirroring their
// GraphX implementations, together with sequential reference
// implementations used as correctness oracles in tests.
package algorithms

import (
	"context"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// DefaultResetProb is the PageRank damping complement used by GraphX.
const DefaultResetProb = 0.15

// prInitSentinel marks the superstep-0 initial message, which must leave
// the initial rank untouched (GraphX seeds ranks at 1.0 before iterating).
const prInitSentinel = -1.0

// PageRank runs static PageRank for numIter message rounds on the
// partitioned graph, exactly like GraphX's staticPageRank: ranks start at
// 1.0 and each round every vertex with incoming edges updates to
// resetProb + (1-resetProb) · Σ_{u→v} rank(u)/outDeg(u).
// It returns the rank per dense vertex index (aligned with pg.G.Vertices())
// and the engine statistics.
func PageRank(ctx context.Context, pg *pregel.PartitionedGraph, numIter int, resetProb float64) ([]float64, *pregel.RunStats, error) {
	prog, err := PageRankProgram(numIter, resetProb, GraphDegreeFunc(pg.G))
	if err != nil {
		return nil, nil, err
	}
	return pregel.Run(ctx, pg, prog)
}

// checkPageRank validates static PageRank's parameters.
func checkPageRank(numIter int, resetProb float64) error {
	if numIter <= 0 {
		return fmt.Errorf("algorithms: PageRank needs numIter > 0, got %d", numIter)
	}
	if resetProb < 0 || resetProb >= 1 {
		return fmt.Errorf("algorithms: PageRank resetProb %g out of [0,1)", resetProb)
	}
	return nil
}

// GraphDegreeFunc returns the out-degree lookup the PageRank programs use,
// backed by the graph's dense index. The distributed worker builds the same
// closure from its shard's shipped degree table instead — both must agree
// for the source-side rank division to stay bit-identical.
func GraphDegreeFunc(g *graph.Graph) func(graph.VertexID) float64 {
	outDeg := g.OutDegrees()
	return func(id graph.VertexID) float64 {
		i, _ := g.Index(id)
		return float64(outDeg[i])
	}
}

// PageRankProgram is the static-PageRank Pregel program, exported so the
// distributed worker can instantiate exactly the engine's program from the
// run spec (same constants, same float operation order). It rejects the
// parameters PageRank rejects.
func PageRankProgram(numIter int, resetProb float64, degOf func(graph.VertexID) float64) (pregel.Program[float64, float64], error) {
	if err := checkPageRank(numIter, resetProb); err != nil {
		return pregel.Program[float64, float64]{}, err
	}
	return pregel.Program[float64, float64]{
		Init: func(id graph.VertexID) float64 { return 1.0 },
		VProg: func(id graph.VertexID, val, msg float64) float64 {
			if msg == prInitSentinel {
				return val
			}
			return resetProb + (1-resetProb)*msg
		},
		SendMsg: func(t *pregel.Triplet[float64], emit pregel.Emitter[float64]) {
			d := degOf(t.SrcID)
			if d > 0 {
				emit.ToDst(t.SrcVal / d)
			}
		},
		MergeMsg:        func(a, b float64) float64 { return a + b },
		InitialMsg:      prInitSentinel,
		MaxIterations:   numIter,
		ActiveDirection: pregel.AllEdges, // static PR scans all edges every round
	}, nil
}

// PageRankSeq is the sequential oracle with identical semantics to
// PageRank (only vertices with at least one incoming edge update).
func PageRankSeq(g *graph.Graph, numIter int, resetProb float64) []float64 {
	verts := g.Vertices()
	nv := len(verts)
	outDeg := g.OutDegrees()
	inDeg := g.InDegrees()
	ranks := make([]float64, nv)
	for i := range ranks {
		ranks[i] = 1.0
	}
	next := make([]float64, nv)
	for it := 0; it < numIter; it++ {
		for i := range next {
			next[i] = 0
		}
		for _, e := range g.Edges() {
			si, _ := g.Index(e.Src)
			di, _ := g.Index(e.Dst)
			if outDeg[si] > 0 {
				next[di] += ranks[si] / float64(outDeg[si])
			}
		}
		for i := range ranks {
			if inDeg[i] > 0 {
				ranks[i] = resetProb + (1-resetProb)*next[i]
			}
		}
	}
	return ranks
}
