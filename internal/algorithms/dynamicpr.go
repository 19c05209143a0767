package algorithms

import (
	"context"
	"fmt"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// PRState is the vertex value of dynamic PageRank: the current rank and
// the last change (delta), which gates further propagation. Exported so
// the distributed worker can decode the 16-byte state off the wire.
type PRState struct {
	Rank  float64
	Delta float64
}

// DynamicPageRank runs PageRank until convergence, mirroring GraphX's
// runUntilConvergence: a vertex stops sending once its rank changed by
// less than tol in the last round, so the active edge set shrinks over
// time (the behavior that makes fine-grained partitioning win for
// convergent algorithms, §4). It returns the converged ranks.
//
// maxIter of 0 means no cap.
func DynamicPageRank(ctx context.Context, pg *pregel.PartitionedGraph, tol, resetProb float64, maxIter int) ([]float64, *pregel.RunStats, error) {
	prog, err := DynamicPageRankProgram(tol, resetProb, maxIter, GraphDegreeFunc(pg.G))
	if err != nil {
		return nil, nil, err
	}
	vals, stats, err := pregel.Run(ctx, pg, prog)
	if err != nil {
		return nil, nil, err
	}
	return Ranks(vals), stats, nil
}

// Ranks extracts the ranks from dynamic PageRank's vertex states.
func Ranks(vals []PRState) []float64 {
	ranks := make([]float64, len(vals))
	for i, v := range vals {
		ranks[i] = v.Rank
	}
	return ranks
}

// DynamicPageRankProgram is the until-convergence PageRank Pregel program,
// exported so the distributed worker runs exactly the engine's program. It
// rejects the parameters DynamicPageRank rejects.
func DynamicPageRankProgram(tol, resetProb float64, maxIter int, degOf func(graph.VertexID) float64) (pregel.Program[PRState, float64], error) {
	if tol <= 0 {
		return pregel.Program[PRState, float64]{}, fmt.Errorf("algorithms: DynamicPageRank needs tol > 0, got %g", tol)
	}
	if resetProb < 0 || resetProb >= 1 {
		return pregel.Program[PRState, float64]{}, fmt.Errorf("algorithms: DynamicPageRank resetProb %g out of [0,1)", resetProb)
	}
	return pregel.Program[PRState, float64]{
		Init: func(id graph.VertexID) PRState { return PRState{} },
		VProg: func(id graph.VertexID, val PRState, msg float64) PRState {
			newRank := val.Rank + (1-resetProb)*msg
			return PRState{Rank: newRank, Delta: newRank - val.Rank}
		},
		SendMsg: func(t *pregel.Triplet[PRState], emit pregel.Emitter[float64]) {
			// Only still-moving sources propagate their delta.
			if t.SrcVal.Delta > tol {
				d := degOf(t.SrcID)
				if d > 0 {
					emit.ToDst(t.SrcVal.Delta / d)
				}
			}
		},
		MergeMsg: func(a, b float64) float64 { return a + b },
		// GraphX's initial message: after superstep 0 every rank is
		// resetProb and every delta is resetProb (> tol), so the first
		// real round is fully active.
		InitialMsg:      resetProb / (1 - resetProb),
		MaxIterations:   maxIter,
		ActiveDirection: pregel.Out,
	}, nil
}

// DynamicPageRankSeq is the sequential oracle: Jacobi iteration of the
// same update until every per-vertex change is at most tol.
func DynamicPageRankSeq(g *graph.Graph, tol, resetProb float64) []float64 {
	verts := g.Vertices()
	nv := len(verts)
	outDeg := g.OutDegrees()
	ranks := make([]float64, nv)
	for i := range ranks {
		ranks[i] = resetProb
	}
	contrib := make([]float64, nv)
	for iter := 0; iter < 10_000; iter++ {
		for i := range contrib {
			contrib[i] = 0
		}
		for _, e := range g.Edges() {
			si, _ := g.Index(e.Src)
			di, _ := g.Index(e.Dst)
			if outDeg[si] > 0 {
				contrib[di] += ranks[si] / float64(outDeg[si])
			}
		}
		maxDelta := 0.0
		for i := range ranks {
			next := resetProb + (1-resetProb)*contrib[i]
			d := next - ranks[i]
			if d < 0 {
				d = -d
			}
			if d > maxDelta {
				maxDelta = d
			}
			ranks[i] = next
		}
		if maxDelta <= tol {
			break
		}
	}
	return ranks
}
