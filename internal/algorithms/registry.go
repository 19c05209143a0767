package algorithms

import (
	"context"
	"fmt"
	"sort"
	"strings"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
)

// The registry is the one place that says what a served algorithm is: its
// name, the advisor profile that picks its partitioning, how a request's
// round cap becomes validated parameters, how it runs on the local engine,
// and how its output reduces to a run report's headline result. Callers
// look algorithms up by name instead of switching on it; internal/dist
// keeps a wire table for the entries it can run across workers.

// Profile classifies an algorithm by its communication structure, which
// determines the predictive partitioning metric (internal/core's advisor
// consumes it).
type Profile struct {
	// Name is a human-readable algorithm name.
	Name string
	// EdgeBound is true when complexity is dominated by edge traversal
	// with small per-vertex state (PageRank, CC, SSSP); false when the
	// algorithm keeps heavy per-vertex state (Triangle Count).
	EdgeBound bool
	// Metric is the partitioning metric that predicts execution time for
	// this profile: "CommCost" for edge-bound algorithms, "Cut" otherwise.
	Metric string
	// IterationsScaleWithDiameter is true for algorithms whose superstep
	// count follows the graph diameter (SSSP, CC to convergence).
	IterationsScaleWithDiameter bool
}

// Params are one run's validated parameters; each algorithm reads only
// its own fields.
type Params struct {
	// Iters caps message rounds: the exact round count for pagerank, a cap
	// for dynamicpr and cc where 0 runs to convergence.
	Iters int
	// Tol is dynamicpr's per-vertex convergence tolerance.
	Tol float64
	// ResetProb is the PageRank reset probability.
	ResetProb float64
	// Landmarks are the sssp source vertices.
	Landmarks []graph.VertexID
}

// Output is one run's typed result, aligned with the graph's Vertices();
// only the algorithm's field is set.
type Output struct {
	Ranks     []float64        // pagerank, dynamicpr
	Labels    []graph.VertexID // cc
	Triangles []int64          // triangles, counted at each corner
	Dists     []DistMap        // sssp
}

// VertexRank pairs a vertex with its PageRank score.
type VertexRank struct {
	Vertex graph.VertexID `json:"vertex"`
	Rank   float64        `json:"rank"`
}

// Summary is a run's headline result in the JSON encoding cutfit.RunReport
// embeds; only the algorithm's fields are set.
type Summary struct {
	TopRanks   []VertexRank `json:"topRanks,omitempty"`
	Components int          `json:"components,omitempty"`
	Triangles  int64        `json:"triangles,omitempty"`
	// Landmark is a pointer: the sssp source is usually vertex 0, which
	// omitempty on a plain VertexID would silently drop.
	Landmark *graph.VertexID `json:"landmark,omitempty"`
	Reached  int             `json:"reached,omitempty"`
}

// Algorithm is one registry entry.
type Algorithm struct {
	Name    string
	Profile Profile
	// Params validates a request's round cap and fills every default. g,
	// when non-nil, supplies the graph-derived ones (the sssp landmark);
	// pass nil to validate iters alone.
	Params func(g *graph.Graph, iters int) (Params, error)
	// Run executes the algorithm on the local engine.
	Run func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (Output, *pregel.RunStats, error)
	// Summarise reduces a run's output over g to its headline result.
	Summarise func(g *graph.Graph, p Params, out Output) Summary
}

// dynamicPRTol is dynamicpr's per-vertex convergence tolerance (GraphX's
// runUntilConvergence flavor).
const dynamicPRTol = 1e-3

// topRankCount is how many top-ranked vertices a rank summary carries.
const topRankCount = 5

// pageRankProfile is shared by both PageRank variants: convergence gating
// does not change the communication structure.
var pageRankProfile = Profile{Name: "pagerank", EdgeBound: true, Metric: "CommCost"}

var registry = []Algorithm{
	{
		Name:    "pagerank",
		Profile: pageRankProfile,
		Params: func(_ *graph.Graph, iters int) (Params, error) {
			return Params{Iters: iters, ResetProb: DefaultResetProb}, checkPageRank(iters, DefaultResetProb)
		},
		Run: func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (Output, *pregel.RunStats, error) {
			ranks, st, err := PageRank(ctx, pg, p.Iters, p.ResetProb)
			return Output{Ranks: ranks}, st, err
		},
		Summarise: summariseRanks,
	},
	{
		Name:    "dynamicpr",
		Profile: pageRankProfile,
		Params: func(_ *graph.Graph, iters int) (Params, error) {
			return Params{Iters: iters, Tol: dynamicPRTol, ResetProb: DefaultResetProb}, checkRoundCap(iters)
		},
		Run: func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (Output, *pregel.RunStats, error) {
			ranks, st, err := DynamicPageRank(ctx, pg, p.Tol, p.ResetProb, p.Iters)
			return Output{Ranks: ranks}, st, err
		},
		Summarise: summariseRanks,
	},
	{
		Name:    "cc",
		Profile: Profile{Name: "cc", EdgeBound: true, Metric: "CommCost", IterationsScaleWithDiameter: true},
		Params: func(_ *graph.Graph, iters int) (Params, error) {
			return Params{Iters: iters}, checkRoundCap(iters)
		},
		Run: func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (Output, *pregel.RunStats, error) {
			labels, st, err := ConnectedComponents(ctx, pg, p.Iters)
			return Output{Labels: labels}, st, err
		},
		Summarise: func(_ *graph.Graph, _ Params, out Output) Summary {
			return Summary{Components: CountComponents(out.Labels)}
		},
	},
	{
		// One superstep; iters is ignored.
		Name:    "triangles",
		Profile: Profile{Name: "triangles", EdgeBound: false, Metric: "Cut"},
		Params:  func(*graph.Graph, int) (Params, error) { return Params{}, nil },
		Run: func(ctx context.Context, pg *pregel.PartitionedGraph, _ Params) (Output, *pregel.RunStats, error) {
			counts, st, err := TriangleCount(ctx, pg)
			return Output{Triangles: counts}, st, err
		},
		Summarise: func(_ *graph.Graph, _ Params, out Output) Summary {
			return Summary{Triangles: TotalTriangles(out.Triangles)}
		},
	},
	{
		// Runs to convergence from one landmark, the graph's first vertex;
		// iters is ignored.
		Name:    "sssp",
		Profile: Profile{Name: "sssp", EdgeBound: true, Metric: "CommCost", IterationsScaleWithDiameter: true},
		Params: func(g *graph.Graph, _ int) (Params, error) {
			if g == nil {
				return Params{}, nil
			}
			verts := g.Vertices()
			if len(verts) == 0 {
				return Params{}, fmt.Errorf("algorithms: sssp needs a non-empty graph")
			}
			return Params{Landmarks: []graph.VertexID{verts[0]}}, nil
		},
		Run: func(ctx context.Context, pg *pregel.PartitionedGraph, p Params) (Output, *pregel.RunStats, error) {
			dists, st, err := ShortestPaths(ctx, pg, p.Landmarks, p.Iters)
			return Output{Dists: dists}, st, err
		},
		Summarise: func(_ *graph.Graph, p Params, out Output) Summary {
			landmark := p.Landmarks[0]
			s := Summary{Landmark: &landmark}
			for _, d := range out.Dists {
				if len(d) > 0 {
					s.Reached++
				}
			}
			return s
		},
	},
}

// Names returns the registered algorithm names in registry order.
func Names() []string {
	names := make([]string, len(registry))
	for i := range registry {
		names[i] = registry[i].Name
	}
	return names
}

// Lookup resolves a registered algorithm by name; the error for an unknown
// name lists the registry.
func Lookup(name string) (*Algorithm, error) {
	for i := range registry {
		if registry[i].Name == name {
			return &registry[i], nil
		}
	}
	return nil, fmt.Errorf("algorithms: unknown algorithm %q (want one of %s)", name, strings.Join(Names(), ", "))
}

// checkRoundCap rejects a negative round cap (0 means run to convergence).
func checkRoundCap(iters int) error {
	if iters < 0 {
		return fmt.Errorf("algorithms: iterations must be non-negative, got %d", iters)
	}
	return nil
}

// summariseRanks reports the top-ranked vertices, ties broken by vertex ID
// for determinism.
func summariseRanks(g *graph.Graph, _ Params, out Output) Summary {
	verts := g.Vertices()
	all := make([]VertexRank, len(out.Ranks))
	for i, r := range out.Ranks {
		all[i] = VertexRank{Vertex: verts[i], Rank: r}
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Rank != all[j].Rank {
			return all[i].Rank > all[j].Rank
		}
		return all[i].Vertex < all[j].Vertex
	})
	k := min(topRankCount, len(all))
	return Summary{TopRanks: all[:k:k]}
}
