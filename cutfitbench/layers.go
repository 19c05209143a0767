package main

import (
	"context"
	"fmt"
	"reflect"

	"cutfit"
	"cutfit/internal/algorithms"
)

// itersFor is the iteration argument every workload passes to Run:
// pagerank runs 10 rounds, the others run to convergence.
func itersFor(alg string) int {
	if alg == "pagerank" {
		return 10
	}
	return 0
}

// runEngine replays the engine call Session.Run makes for alg on pg, under
// a span named name, and returns the run's checkSummary.
func runEngine(ctx context.Context, tr *tracer, name string, op, parent int, g *cutfit.Graph, pg *cutfit.PartitionedGraph, alg string) (checkSummary, error) {
	var (
		vals any
		st   *cutfit.RunStats
	)
	d, err := tr.call(name, op, parent, func() (err error) {
		switch alg {
		case "pagerank":
			vals, st, err = algorithms.PageRank(ctx, pg, itersFor(alg), algorithms.DefaultResetProb)
		case "cc":
			vals, st, err = algorithms.ConnectedComponents(ctx, pg, itersFor(alg))
		case "sssp":
			vals, st, err = algorithms.ShortestPaths(ctx, pg, []cutfit.VertexID{g.Vertices()[0]}, itersFor(alg))
		case "triangles":
			vals, st, err = algorithms.TriangleCount(ctx, pg)
		default:
			err = fmt.Errorf("no engine replay for %q", alg)
		}
		return err
	})
	if err != nil {
		return checkSummary{}, err
	}
	tr.noteEngine(st, d, g.NumLiveEdges())
	return summarize(g, vals, st), nil
}

// sameReport checks a report against its reference.
func sameReport(got, want *cutfit.RunReport) error {
	if !reflect.DeepEqual(got, want) {
		return fmt.Errorf("%s on %s: report differs from its reference\n got: %+v\nwant: %+v", got.Algorithm, got.Strategy, got, want)
	}
	return nil
}

// sameSummary checks a replayed run against its reference report.
func sameSummary(alg string, got checkSummary, want *cutfit.RunReport) error {
	if w := summaryOf(want); !reflect.DeepEqual(got, w) {
		return fmt.Errorf("replayed %s differs from its reference\n got: %+v\nwant: %+v", alg, got, w)
	}
	return nil
}
