// Package core implements the paper's contribution as a library: tailoring
// the partitioning strategy to the computation and the dataset ("cut to
// fit"). It encodes the selection heuristics distilled in §4 —
//
//   - algorithms whose complexity is dominated by edges and that exchange
//     small per-vertex state every superstep (PageRank, Connected
//     Components, SSSP) should choose partitioners by the Communication
//     Cost metric: DC for small graphs, 2D for large ones (2D achieves
//     better locality on large datasets, and dominates at fine
//     granularity);
//   - algorithms that keep a lot of per-vertex state and per-vertex
//     computation (Triangle Count) should be compared using the Cut
//     Vertices metric, where strategy differences are small;
//
// — and an empirical selector that measures candidate partitionings on the
// actual graph and ranks them by the algorithm-appropriate metric.
package core

import (
	"fmt"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/store"
)

// Profile classifies an algorithm by its communication structure, which
// determines the predictive partitioning metric. Each algorithm's profile
// lives in its internal/algorithms registry entry.
type Profile = algorithms.Profile

// Built-in profiles for the paper's four algorithms, read from the
// algorithm registry.
var (
	ProfilePageRank = registryProfile("pagerank")
	ProfileCC       = registryProfile("cc")
	ProfileTR       = registryProfile("triangles")
	ProfileSSSP     = registryProfile("sssp")
)

// registryProfile reads a built-in profile; a missing entry is a bug in the
// registry, so it panics at start-up.
func registryProfile(alg string) Profile {
	p, err := ProfileFor(alg)
	if err != nil {
		panic(err)
	}
	return p
}

// ProfileFor returns the profile of a registered algorithm; "dynamicpr" —
// the convergence-gated PageRank variant — shares PageRank's communication
// structure and profile. The error for an unknown name lists the registry.
func ProfileFor(alg string) (Profile, error) {
	a, err := algorithms.Lookup(alg)
	if err != nil {
		return Profile{}, err
	}
	return a.Profile, nil
}

// GraphFacts are the dataset properties the heuristic advisor consults.
type GraphFacts struct {
	Vertices int
	Edges    int
	// Symmetric is true for (effectively) undirected graphs.
	Symmetric bool
	// IDLocality is true when consecutive vertex IDs are correlated with
	// graph locality (e.g. road networks with geographic ID order), which
	// the SC/DC modulo partitioners exploit.
	IDLocality bool
}

// Facts extracts GraphFacts from a graph (IDLocality cannot be derived
// from structure alone and defaults to false; see DetectIDLocality).
func Facts(g *graph.Graph) GraphFacts {
	return GraphFacts{
		Vertices:  g.NumVertices(),
		Edges:     g.NumEdges(),
		Symmetric: g.SymmetryPct() > 99.0,
	}
}

// AdvisorConfig tunes the heuristic thresholds.
type AdvisorConfig struct {
	// LargeEdgeThreshold separates "small" from "large" datasets. The
	// paper's large datasets (Orkut, socLiveJournal, follow-*) start at
	// ~69M edges; at this repository's ~1/100 analog scale the equivalent
	// default is 700k.
	LargeEdgeThreshold int
}

// DefaultAdvisorConfig returns thresholds matched to the analog datasets.
func DefaultAdvisorConfig() AdvisorConfig {
	return AdvisorConfig{LargeEdgeThreshold: 700_000}
}

// Recommendation is the advisor's output.
type Recommendation struct {
	Strategy partition.Strategy
	// Metric is the partitioning metric the choice optimizes.
	Metric string
	// Reason explains the recommendation in the paper's terms.
	Reason string
}

// Advise recommends a partitioning strategy for the given algorithm
// profile, dataset facts and partition count, following §4's heuristics.
func Advise(p Profile, f GraphFacts, numParts int, cfg AdvisorConfig) Recommendation {
	if cfg.LargeEdgeThreshold <= 0 {
		cfg = DefaultAdvisorConfig()
	}
	large := f.Edges >= cfg.LargeEdgeThreshold
	if !p.EdgeBound {
		// Triangle-count-like: compare by Cut; differences between
		// strategies are small, and the canonical cut keeps both
		// orientations of each undirected pair together, which the
		// neighbor-set shipping benefits from.
		return Recommendation{
			Strategy: partition.CanonicalRandomVertexCut(),
			Metric:   p.Metric,
			Reason: "per-vertex-state-heavy algorithm: compare strategies by Cut vertices; " +
				"CRVC collocates both orientations of every edge, and strategy differences are within noise",
		}
	}
	switch {
	case large:
		return Recommendation{
			Strategy: partition.EdgePartition2D(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a large dataset: 2D bounds replication by 2·sqrt(N) " +
				"and achieves the lowest communication cost at scale",
		}
	case f.IDLocality:
		return Recommendation{
			Strategy: partition.DestinationCut(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a small dataset whose vertex IDs encode locality: " +
				"DC exploits ID locality to cut communication cost",
		}
	default:
		return Recommendation{
			Strategy: partition.DestinationCut(),
			Metric:   p.Metric,
			Reason: "communication-bound algorithm on a small dataset: the paper finds DC best for " +
				"smaller datasets (2D and DC both optimize communication cost)",
		}
	}
}

// Selection is the outcome of empirical strategy selection: the winning
// strategy together with the Assignment it was measured from — so running
// the winner never re-partitions — and the metric sets of every candidate.
type Selection struct {
	// Strategy is the candidate minimizing the profile's predictive metric.
	Strategy partition.Strategy
	// Assignment is the winner's edge assignment, produced by the single
	// measurement pass and ready to hand to the pregel builder.
	Assignment *partition.Assignment
	// Results holds the §3.1 metric set of every candidate, keyed by
	// partition.KeyOf — the strategy name, except for parameterized
	// strategies (Hybrid:<t>), whose variants must not collapse into one
	// row.
	Results map[string]*metrics.Result
}

// Build constructs the engine-ready partitioned topology of the winning
// strategy straight from the retained Assignment — zero additional
// partitioning passes after selection.
func (s *Selection) Build(opts pregel.BuildOptions) (*pregel.PartitionedGraph, error) {
	return pregel.NewPartitionedGraphFromAssignment(s.Assignment, opts)
}

// SelectEmpirically assigns g with every candidate strategy at numParts —
// exactly one edge-assignment pass per candidate — measures the profile's
// predictive metric from each assignment, and returns the minimizing
// strategy with its Assignment retained, so the subsequent engine build
// costs no further partitioning. This is the "measure, then choose"
// workflow the paper recommends when a pre-computation pass is affordable.
func SelectEmpirically(g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	return SelectEmpiricallyIn(nil, g, candidates, numParts, p)
}

// SelectEmpiricallyIn is SelectEmpirically routed through an artifact
// store: each candidate's assignment and metric set come from st, so
// repeated selection over one graph — different profiles, different
// callers, concurrent requests — reuses candidate assignments instead of
// re-assigning, and the winner's cached Assignment is already in place for
// the subsequent store Built call. A nil store computes directly (the
// one-shot batch path).
func SelectEmpiricallyIn(st *store.Store, g *graph.Graph, candidates []partition.Strategy, numParts int, p Profile) (*Selection, error) {
	if len(candidates) == 0 {
		return nil, fmt.Errorf("core: no candidate strategies")
	}
	sel := &Selection{Results: make(map[string]*metrics.Result, len(candidates))}
	bestVal := 0.0
	for _, s := range candidates {
		var (
			a   *partition.Assignment
			m   *metrics.Result
			err error
		)
		if st != nil {
			if a, err = st.Assignment(g, s, numParts); err == nil {
				m, err = st.Metrics(g, s, numParts)
			}
		} else {
			if a, err = partition.Assign(g, s, numParts); err == nil {
				m, err = metrics.FromAssignment(a)
			}
		}
		if err != nil {
			return nil, fmt.Errorf("core: measuring %s: %w", s.Name(), err)
		}
		sel.Results[partition.KeyOf(s)] = m
		v, err := m.MetricByName(p.Metric)
		if err != nil {
			return nil, err
		}
		if sel.Strategy == nil || v < bestVal {
			sel.Strategy = s
			sel.Assignment = a
			bestVal = v
		}
	}
	return sel, nil
}

// DetectIDLocality estimates whether consecutive vertex IDs are correlated
// with adjacency by measuring the fraction of edges whose endpoint IDs
// differ by at most window. Grid-ordered road networks score high; hashed
// or crawled social graphs score low. Returns true above threshold (0.5 is
// a robust default with window = ~2 rows of a grid).
func DetectIDLocality(g *graph.Graph, window int64, threshold float64) bool {
	edges := g.Edges()
	if len(edges) == 0 {
		return false
	}
	near := 0
	for _, e := range edges {
		d := int64(e.Src) - int64(e.Dst)
		if d < 0 {
			d = -d
		}
		if d <= window {
			near++
		}
	}
	return float64(near)/float64(len(edges)) >= threshold
}
