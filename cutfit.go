// Package cutfit is the public API of the Cut-to-Fit graph partitioning
// library, a from-scratch Go reproduction of "Cut to Fit: Tailoring the
// Partitioning to the Computation" (Kolokasis & Pratikakis).
//
// Everything is organized around one artifact: the Assignment, the
// validated edge→partition mapping a strategy produces in a single pass
// (PartitionAssignment). The same Assignment feeds the §3.1 quality
// metrics (MeasureAssignment), the engine topology
// (PartitionFromAssignment), and empirical strategy selection (Select,
// which retains the winner's Assignment so running the chosen strategy
// never re-partitions). A built PartitionedGraph can also report its own
// metric set directly (PartitionedGraph.Metrics) without any extra scan.
//
// The library provides:
//
//   - an in-memory directed graph with exact structural statistics
//     (Graph, LoadEdgeList, Stats);
//   - the six vertex-cut partitioning strategies of the paper — RVC, 1D,
//     2D, CRVC, SC, DC — plus streaming Greedy/HDRF extensions
//     (Strategies, StrategyByName);
//   - the single-pass partitioning pipeline (PartitionAssignment,
//     MeasureAssignment, PartitionFromAssignment) with Measure and
//     Partition kept as thin one-call wrappers;
//   - a GraphX-style vertex-cut Pregel engine that executes computations
//     in parallel while counting all cross-partition traffic (Partition,
//     RunPageRank, RunConnectedComponents, RunTriangleCount,
//     RunShortestPaths);
//   - a cluster cost model that converts engine statistics into simulated
//     execution time for the paper's four cluster configurations
//     (ConfigI…ConfigIV, Simulate);
//   - the paper's contribution as a library: an advisor that tailors the
//     partitioning strategy and granularity to the computation and the
//     dataset (Advise, AdviseGranularity, Select, SelectEmpirically),
//     plus a fitted metric→time predictor (TrainPredictor) that ranks
//     partitionings without running them;
//   - extension algorithms (RunDynamicPageRank, RunLabelPropagation,
//     RunKCoreMembership) and extension partitioners (HybridCut,
//     RangeCut, ExtendedStrategies);
//   - the generic engine itself (Program, RunProgram) for writing custom
//     vertex programs, with panic-safe execution and an OnSuperstep
//     monitoring/halting hook;
//   - deterministic synthetic analogs of the paper's nine datasets
//     (Datasets) and generators for custom workloads (the internal/gen
//     package, surfaced through the datasets specs).
//
// Quick start — one assignment pass from strategy to metrics to engine:
//
//	g, _ := cutfit.Datasets()[1].BuildCached() // the "youtube" analog
//	a, _ := cutfit.PartitionAssignment(g, cutfit.EdgePartition2D(), 128)
//	pg, _ := cutfit.PartitionFromAssignment(a, cutfit.PartitionOptions{})
//	fmt.Println(pg.Metrics().CommCost) // §3.1 metrics, no extra scan
//	ranks, stats, _ := cutfit.RunPageRank(context.Background(), pg, 10)
//	breakdown, _ := cutfit.ConfigI().Simulate(stats, 0)
//	fmt.Println(len(ranks), breakdown.TotalSecs())
//
// Or let the advisor choose the strategy empirically — each candidate is
// assigned exactly once and the winner is built from its retained
// assignment:
//
//	sel, _ := cutfit.Select(g, cutfit.Strategies(), 128, cutfit.ProfilePageRank)
//	pg, _ := cutfit.PartitionFromAssignment(sel.Assignment, cutfit.PartitionOptions{})
//
// # Serving
//
// For repeated or concurrent requests — the serving workload rather than
// the batch one — wrap the pipeline in a Session. A Session memoizes every
// pipeline artifact in a size-bounded, single-flight cache and runs the
// engine with pooled scratch buffers, so identical requests cost one
// partitioning pass total and N goroutines running algorithms on one
// cached topology allocate almost nothing:
//
//	se := cutfit.NewSession(cutfit.SessionOptions{})
//	m, _ := se.Measure(g, cutfit.EdgePartition2D(), 128)   // partitions once
//	pg, _ := se.Partition(g, cutfit.EdgePartition2D(), 128) // reuses that pass
//	rep, _ := se.Run(ctx, g, cutfit.EdgePartition2D(), 128, "pagerank", 10)
//	fmt.Println(m.CommCost, pg.NumParts, rep.SimSecs, se.CacheStats())
//
// All Session methods are safe for concurrent use. The cmd/cutfitd command
// serves exactly this Session surface over HTTP/JSON.
//
// SessionOptions.Parallelism is the session-wide worker-count default: it
// flows through the artifact store into every topology the session builds
// and from there into every engine phase of every run on those topologies
// (cutfitd exposes it as -parallelism). Values < 1 fall back to the
// process's GOMAXPROCS — one shared definition, internal/par — so capping
// GOMAXPROCS also caps the strategies' own assignment shards, which have no
// per-call knob.
//
// # Dynamic updates
//
// A Session also serves evolving graphs. AppendEdges advances a graph to a
// new generation — the original is never mutated, so concurrent requests
// against it are unaffected — and records the delta, after which the new
// generation's artifacts are derived from the old one's instead of
// recomputed: assignments extend over just the appended suffix (streaming
// strategies resume their retained state bit-for-bit), built topologies
// are patched rather than re-sorted, and metrics are read off the patched
// topology. Streaming edge batches and re-running convergence-style
// algorithms between batches therefore skips the cold rebuild, though not
// the O(|E|) work: Graph.Grow copies the whole dense edge list, and the
// stream-mutate benchmark measures a patch at 0.54–0.62 of a rebuild
// (pregel.patch_over_rebuild, ~293K edges, 2-vCPU Linux; run
// `bash cutfitbench/run.sh --workload stream-mutate --seed 1 --seconds 15 --trace 1`):
//
//	g, _ = se.AppendEdges(g, batch)                               // next generation
//	rep, _ := se.Run(ctx, g, cutfit.EdgePartition2D(), 128, "dynamicpr", 0)
//
// Graphs are fully mutable, not append-only: RemoveEdges retracts edges by
// tombstoning their dense positions (unfollows, expired interactions), and
// SlideWindow appends a batch and expires the oldest live edges in one
// generation step — the serving shape for time-windowed graphs. Retractions
// ride the same delta machinery as appends: cached assignments subtract the
// retracted edges and built topologies are patched in place, bit-identical
// to a rebuild from scratch. Once tombstones accumulate past a quarter of
// the edge list the generation compacts its dense storage; compaction
// severs the delta chain, so the next request pays one full partition pass
// (never a wrong answer, just a cold one).
//
// Graphs may also carry optional per-edge weights (FromWeightedEdges, or a
// third column in LoadEdgeList input). Weighted graphs flow through the
// same pipeline and additionally report the weighted metric counterparts
// (Metrics.WeightedBalance, WeightPerPart, WeightedCommCost); a graph whose
// weights are all 1 produces bit-identical base metrics to its unweighted
// twin.
//
// See ExampleSession_AppendEdges and ExampleSession_RemoveEdges for the
// full loops.
//
// # Observability
//
// The serving layers publish live metric series — store hit/miss/
// eviction counters and tier sizes, per-superstep engine latency and
// active-edge histograms, scratch-pool effectiveness, block-tier cache
// traffic — through a process-wide registry. WriteMetrics renders all
// of them in the Prometheus text exposition format and MetricNames
// lists the registered families:
//
//	var buf bytes.Buffer
//	_ = cutfit.WriteMetrics(&buf) // Prometheus text format 0.0.4
//
// Counters are monotone across calls and each series is rendered from a
// consistent snapshot, so the output is directly scrapeable. The
// cmd/cutfitd daemon serves it under GET /metrics, adds per-endpoint
// request/latency/error series on top, and applies admission control —
// a global and per-graph concurrency limiter with a bounded wait queue
// whose depth and wait time are themselves exported series (429 +
// Retry-After past the deadline). See ExampleMetricNames and
// docs/OPERATIONS.md for the full catalog.
//
// # Persistence
//
// A Session's amortized measurement cost survives restarts. Snapshot
// persists the whole artifact cache — graphs, assignments, metric sets and
// built engine topologies — as one versioned, CRC-checked container, and
// RestoreSession reads it back so the first requests of the new process
// are cache hits (restoring a built topology is one read + validation,
// never a re-partition):
//
//	_ = se.SnapshotNamed(w, map[string]*cutfit.Graph{"social": g})
//	se2, named, _ := cutfit.RestoreSession(r, cutfit.SessionOptions{})
//	pg, _ := se2.Partition(named["social"], cutfit.EdgePartition2D(), 128) // hit
//
// SessionOptions.DiskDir additionally gives the cache a durable disk tier:
// evicted artifacts spill to content-addressed snapshot files, misses check
// disk before recomputing, and the files outlive the process. The cmd/cutfitd
// daemon composes both via -data-dir (warm start on boot, POST /v1/snapshot,
// persist on graceful shutdown); see ExampleSession_Snapshot.
//
// # Out-of-core scale
//
// For graphs whose dense edge list (16 bytes per edge, plus derived
// views) does not fit comfortably in memory, the block-compressed edge
// tier stores edges in fixed-size blocks encoded with the snapshot
// delta-varint codec and decodes them on demand: full scans stream
// through pooled scratch, random access goes through a small LRU of hot
// blocks. LoadEdgeListBlocks parses an edge list straight into block
// form (peak heap is one block of pending edges plus the compressed
// payloads), StreamEdgeList feeds batches to a callback without building
// a graph at all, and SaveBlockGraph/OpenBlockGraph persist the tier to a
// single file whose blocks are then served directly from disk. A
// block-backed Graph flows through the entire pipeline — strategies,
// metrics, the engine build, dynamic updates — bit-identically to its
// dense twin, without ever materializing the dense edge list; mutating
// one (AddEdge) densifies it first.
//
//	g, _ := cutfit.LoadEdgeListBlocks(f, 0) // 0 = DefaultBlockEdges
//	_ = cutfit.SaveBlockGraph("social.cfb", g)
//	g2, closer, _ := cutfit.OpenBlockGraph("social.cfb") // served from the file
//	defer closer.Close()
package cutfit

import (
	"context"
	"fmt"
	"io"

	"cutfit/internal/algorithms"
	"cutfit/internal/cluster"
	"cutfit/internal/core"
	"cutfit/internal/datasets"
	"cutfit/internal/graph"
	"cutfit/internal/metrics"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// Core graph types.
type (
	// Graph is a directed multigraph stored as an edge list with lazily
	// built adjacency views.
	Graph = graph.Graph
	// VertexID identifies a vertex (64-bit, GraphX-style).
	VertexID = graph.VertexID
	// Edge is a directed edge.
	Edge = graph.Edge
	// GraphStats is the Table 1 structural characterization.
	GraphStats = graph.Stats
)

// Partitioning types.
type (
	// Strategy assigns every edge of a graph to a partition.
	Strategy = partition.Strategy
	// PID identifies a partition.
	PID = partition.PID
	// Metrics is the §3.1 partitioning metric set.
	Metrics = metrics.Result
	// Assignment is the validated one-pass edge→partition artifact that
	// flows through the whole pipeline: produce it once with
	// PartitionAssignment, then measure (MeasureAssignment) and build the
	// engine topology (PartitionFromAssignment) from the same pass.
	Assignment = partition.Assignment
	// Selection is the outcome of empirical strategy selection: the winner,
	// its retained Assignment, and every candidate's metric set.
	Selection = core.Selection
)

// Engine and simulation types.
type (
	// PartitionedGraph is the vertex-cut partitioned topology the engine
	// executes on.
	PartitionedGraph = pregel.PartitionedGraph
	// RunStats is the per-superstep work and traffic accounting.
	RunStats = pregel.RunStats
	// ClusterConfig describes a simulated cluster.
	ClusterConfig = cluster.Config
	// Breakdown is a simulated execution time split by phase.
	Breakdown = cluster.Breakdown
	// DistMap is the ShortestPaths result per vertex: landmark → distance.
	DistMap = algorithms.DistMap
)

// Advisor types.
type (
	// Profile classifies an algorithm's communication structure.
	Profile = core.Profile
	// GraphFacts are dataset properties consulted by the advisor.
	GraphFacts = core.GraphFacts
	// Recommendation is the advisor's output.
	Recommendation = core.Recommendation
	// DatasetSpec describes one of the paper's analog datasets.
	DatasetSpec = datasets.Spec
)

// NewGraph returns an empty graph with capacity for hintEdges edges.
func NewGraph(hintEdges int) *Graph { return graph.New(hintEdges) }

// FromEdges builds a graph that takes ownership of the slice.
func FromEdges(edges []Edge) *Graph { return graph.FromEdges(edges) }

// FromWeightedEdges builds a weighted graph that takes ownership of both
// slices; weights[i] is the weight of edges[i] and must be finite and
// positive. Weighted graphs report the weighted metric counterparts
// (WeightPerPart, WeightedBalance, WeightedCommCost) alongside the base
// set.
func FromWeightedEdges(edges []Edge, weights []float64) (*Graph, error) {
	return graph.FromWeightedEdges(edges, weights)
}

// LoadEdgeList parses a SNAP-style whitespace-separated edge list.
func LoadEdgeList(r io.Reader) (*Graph, error) { return graph.ReadEdgeList(r) }

// DefaultBlockEdges is the block granularity LoadEdgeListBlocks uses when
// given 0: 64K edges per block.
const DefaultBlockEdges = graph.DefaultBlockEdges

// LoadEdgeListBlocks parses a SNAP-style edge list straight into the
// block-compressed edge tier: edges land in fixed-size delta-varint
// blocks (blockEdges per block, 0 selects DefaultBlockEdges) that decode
// on demand, so peak heap during the load is one block of pending edges
// plus the compressed payloads — never the dense 16-byte-per-edge list.
// The resulting graph flows through the whole pipeline bit-identically to
// its dense twin.
func LoadEdgeListBlocks(r io.Reader, blockEdges int) (*Graph, error) {
	return graph.ReadEdgeListBlocks(r, blockEdges)
}

// StreamEdgeList parses a SNAP-style edge list in batches, invoking fn
// for each: weights is nil until a weighted (three-column) line is seen
// and aligned with edges afterwards. The slices are reused between
// batches — fn must copy anything it retains. Nothing is materialized, so
// arbitrarily large inputs stream in constant memory.
func StreamEdgeList(r io.Reader, fn func(edges []Edge, weights []float64) error) error {
	return graph.StreamEdgeList(r, fn)
}

// SaveBlockGraph persists a block-backed graph's compressed edge tier to
// path atomically as a single CRC-checked file, without a dense
// round-trip: for a heap-backed tier the encoded blocks are written
// as-is.
func SaveBlockGraph(path string, g *Graph) error { return snap.SaveBlockGraph(path, g) }

// OpenBlockGraph opens a file written by SaveBlockGraph and returns a
// graph that serves its blocks straight from the file — only the index
// and vertex list are heap-resident. The returned closer owns the file
// handle; close it only when the graph is no longer in use.
func OpenBlockGraph(path string) (*Graph, io.Closer, error) { return snap.OpenBlockGraph(path) }

// The six partitioning strategies evaluated in the paper.
var (
	RandomVertexCut          = partition.RandomVertexCut
	EdgePartition1D          = partition.EdgePartition1D
	EdgePartition2D          = partition.EdgePartition2D
	CanonicalRandomVertexCut = partition.CanonicalRandomVertexCut
	SourceCut                = partition.SourceCut
	DestinationCut           = partition.DestinationCut
)

// Strategies returns the paper's six strategies in table order.
func Strategies() []Strategy { return partition.All() }

// ExtendedStrategies adds the streaming Greedy and HDRF partitioners.
func ExtendedStrategies() []Strategy { return partition.Extended() }

// HybridCut returns a PowerLyra-style hybrid-cut strategy: low-in-degree
// destinations keep their edges together, high-degree hubs are spread by
// source hash. threshold is the in-degree cutoff.
func HybridCut(threshold int) Strategy { return partition.Hybrid(threshold) }

// RangeCut returns the contiguous source-ID block partitioner — the
// blocking counterpart to SC's modulo striping for ID-ordered graphs.
func RangeCut() Strategy { return partition.Range() }

// StrategyByName resolves "RVC", "1D", "2D", "CRVC", "SC", "DC", "Greedy",
// "HDRF", "Range", "Hybrid" or "Hybrid:<in-degree threshold>".
func StrategyByName(name string) (Strategy, error) { return partition.ByName(name) }

// StrategiesByNames resolves a comma-separated list of strategy names (any
// names StrategyByName accepts; empty elements are skipped).
func StrategiesByNames(csv string) ([]Strategy, error) { return partition.ByNames(csv) }

// PartitionAssignment runs strategy s over g exactly once and returns the
// validated Assignment artifact — the head of the strategy → metrics →
// engine pipeline. Hash strategies assign in parallel shards.
func PartitionAssignment(g *Graph, s Strategy, numParts int) (*Assignment, error) {
	return partition.Assign(g, s, numParts)
}

// MeasureAssignment computes the full §3.1 metric set from an Assignment,
// reusing its per-partition edge histogram.
func MeasureAssignment(a *Assignment) (*Metrics, error) {
	return metrics.FromAssignment(a)
}

// Measure partitions g with s into numParts partitions and computes the
// full §3.1 metric set — a thin one-shot-session wrapper (nothing is
// cached across calls; use a Session to serve repeated requests).
func Measure(g *Graph, s Strategy, numParts int) (*Metrics, error) {
	return oneShot.Measure(g, s, numParts)
}

// PartitionOptions tunes how the engine-ready partitioned representation
// is built and executed. The zero value matches Partition's defaults.
type PartitionOptions struct {
	// Parallelism is the number of worker goroutines used for the build
	// and for every engine phase; values < 1 default to GOMAXPROCS. The
	// strategy's own assignment pass is not governed by this knob: hash
	// strategies shard over GOMAXPROCS (constrain it to constrain them).
	Parallelism int
	// ReuseBuffers keeps the engine's run scratch (mirror tables, combine
	// accumulators, phase counters) parked on the PartitionedGraph between
	// runs, making repeated runs over the same topology — benchmark loops,
	// empirical strategy selection — nearly allocation-free. Result slices
	// are copied out, so returned values stay valid across runs.
	ReuseBuffers bool
}

// PartitionFromAssignment builds the engine-ready partitioned
// representation straight from an Assignment — the engine end of the
// pipeline, with zero additional partitioning passes. The same Assignment
// can feed MeasureAssignment and PartitionFromAssignment, so measuring and
// then running a strategy costs one edge-assignment pass in total.
func PartitionFromAssignment(a *Assignment, opts PartitionOptions) (*PartitionedGraph, error) {
	return pregel.NewPartitionedGraphFromAssignment(a, pregel.BuildOptions{
		Parallelism:  opts.Parallelism,
		ReuseBuffers: opts.ReuseBuffers,
	})
}

// Partition builds the engine-ready partitioned representation of g under
// strategy s with default options — a thin one-shot-session wrapper.
func Partition(g *Graph, s Strategy, numParts int) (*PartitionedGraph, error) {
	pg, err := oneShot.Partition(g, s, numParts)
	if err != nil {
		return nil, fmt.Errorf("cutfit: %w", err)
	}
	return pg, nil
}

// PartitionWithOptions builds the engine-ready partitioned representation
// of g under strategy s using the sort/scatter parallel builder — a thin
// wrapper over PartitionAssignment + PartitionFromAssignment.
func PartitionWithOptions(g *Graph, s Strategy, numParts int, opts PartitionOptions) (*PartitionedGraph, error) {
	a, err := PartitionAssignment(g, s, numParts)
	if err != nil {
		return nil, fmt.Errorf("cutfit: %w", err)
	}
	return PartitionFromAssignment(a, opts)
}

// RunPageRank executes static PageRank for numIter rounds (GraphX
// semantics, reset probability 0.15). Ranks are aligned with
// pg.G.Vertices().
func RunPageRank(ctx context.Context, pg *PartitionedGraph, numIter int) ([]float64, *RunStats, error) {
	return algorithms.PageRank(ctx, pg, numIter, algorithms.DefaultResetProb)
}

// RunConnectedComponents executes label-propagation connected components;
// maxIter of 0 runs to convergence.
func RunConnectedComponents(ctx context.Context, pg *PartitionedGraph, maxIter int) ([]VertexID, *RunStats, error) {
	return algorithms.ConnectedComponents(ctx, pg, maxIter)
}

// RunTriangleCount counts triangles through every vertex.
func RunTriangleCount(ctx context.Context, pg *PartitionedGraph) ([]int64, *RunStats, error) {
	return algorithms.TriangleCount(ctx, pg)
}

// RunShortestPaths computes hop distances to the landmark vertices;
// maxIter of 0 runs to convergence.
func RunShortestPaths(ctx context.Context, pg *PartitionedGraph, landmarks []VertexID, maxIter int) ([]DistMap, *RunStats, error) {
	return algorithms.ShortestPaths(ctx, pg, landmarks, maxIter)
}

// RunDynamicPageRank runs PageRank to convergence with per-vertex delta
// gating (GraphX's runUntilConvergence); the active edge set shrinks as
// vertices converge. maxIter of 0 means no cap.
func RunDynamicPageRank(ctx context.Context, pg *PartitionedGraph, tol float64, maxIter int) ([]float64, *RunStats, error) {
	return algorithms.DynamicPageRank(ctx, pg, tol, algorithms.DefaultResetProb, maxIter)
}

// RunLabelPropagation runs community detection by synchronous label
// propagation for numIter rounds.
func RunLabelPropagation(ctx context.Context, pg *PartitionedGraph, numIter int) ([]VertexID, *RunStats, error) {
	return algorithms.LabelPropagation(ctx, pg, numIter)
}

// RunKCoreMembership reports which vertices survive in the k-core.
func RunKCoreMembership(ctx context.Context, pg *PartitionedGraph, k int32) ([]bool, *RunStats, error) {
	return algorithms.KCoreMembership(ctx, pg, k)
}

// KCoreNumbers computes the exact core number of every vertex (sequential
// peeling; aligned with g.Vertices()).
func KCoreNumbers(g *Graph) []int32 { return algorithms.KCore(g) }

// The paper's four cluster configurations (§4).
var (
	ConfigI   = cluster.ConfigI
	ConfigII  = cluster.ConfigII
	ConfigIII = cluster.ConfigIII
	ConfigIV  = cluster.ConfigIV
)

// EstimateGraphBytes approximates the on-disk size of an edge list.
func EstimateGraphBytes(numEdges int) int64 { return cluster.EstimateGraphBytes(numEdges) }

// Built-in algorithm profiles for the advisor.
var (
	ProfilePageRank            = core.ProfilePageRank
	ProfileConnectedComponents = core.ProfileCC
	ProfileTriangleCount       = core.ProfileTR
	ProfileShortestPaths       = core.ProfileSSSP
)

// ProfileFor resolves the advisor profile of any algorithm Session.Run
// accepts ("pagerank", "dynamicpr", "cc", "triangles", "sssp").
func ProfileFor(alg string) (Profile, error) { return core.ProfileFor(alg) }

// Facts extracts advisor-relevant facts from a graph.
func Facts(g *Graph) GraphFacts { return core.Facts(g) }

// Advise recommends a strategy for the algorithm profile, dataset facts
// and partition count, following the paper's §4 heuristics.
func Advise(p Profile, f GraphFacts, numParts int) Recommendation {
	return core.Advise(p, f, numParts, core.DefaultAdvisorConfig())
}

// Select measures every candidate strategy on g — one edge-assignment pass
// per candidate — and returns the Selection minimizing the profile's
// predictive metric. The winner's Assignment is retained on the Selection,
// so building it with PartitionFromAssignment re-partitions nothing. A
// thin one-shot-session wrapper; Session.Select additionally caches every
// candidate's assignment for later requests.
func Select(g *Graph, candidates []Strategy, numParts int, p Profile) (*Selection, error) {
	return oneShot.Select(g, candidates, numParts, p)
}

// SelectEmpirically measures every candidate strategy on g and returns the
// one minimizing the profile's predictive metric, with all measurements —
// a thin wrapper over Select for callers that only need the ranking.
func SelectEmpirically(g *Graph, candidates []Strategy, numParts int, p Profile) (Strategy, map[string]*Metrics, error) {
	sel, err := Select(g, candidates, numParts, p)
	if err != nil {
		return nil, nil, err
	}
	return sel.Strategy, sel.Results, nil
}

// Predictor is a fitted linear model from a partitioning metric to
// execution time (the paper's correlation made executable).
type Predictor = core.Predictor

// GranularityAdvice recommends a partition count.
type GranularityAdvice = core.GranularityAdvice

// FitPredictor fits time ≈ a + b·metric by least squares.
func FitPredictor(metricName string, metricValues, timesSecs []float64) (*Predictor, error) {
	return core.FitPredictor(metricName, metricValues, timesSecs)
}

// TrainPredictor measures candidate strategies on g and fits a predictor
// from the provided measured times (strategy name → seconds).
func TrainPredictor(g *Graph, candidates []Strategy, numParts int, p Profile, timesByStrategy map[string]float64) (*Predictor, map[string]*Metrics, error) {
	return core.TrainPredictor(g, candidates, numParts, p, timesByStrategy)
}

// AdviseGranularity recommends a partition count (coarse vs fine) per the
// paper's §4 granularity findings.
func AdviseGranularity(p Profile, f GraphFacts, coarse, fine int) GranularityAdvice {
	return core.AdviseGranularity(p, f, coarse, fine, core.DefaultAdvisorConfig())
}

// Datasets returns the nine analog datasets of the paper's evaluation in
// Table 1 order.
func Datasets() []DatasetSpec { return datasets.Suite() }

// DatasetByName resolves an analog dataset by name (e.g. "orkut").
func DatasetByName(name string) (DatasetSpec, error) { return datasets.ByName(name) }

// The generic Pregel engine is exported so downstream users can write
// their own vertex programs against the same partitioned substrate the
// built-in algorithms use.
type (
	// Program defines a custom Pregel computation over vertex values V
	// and messages M.
	Program[V, M any] = pregel.Program[V, M]
	// Triplet presents an edge with its endpoint values to SendMsg.
	Triplet[V any] = pregel.Triplet[V]
	// MessageEmitter delivers messages to a triplet's endpoints.
	MessageEmitter[M any] = pregel.Emitter[M]
	// EdgeDirection selects which triplets the compute phase scans.
	EdgeDirection = pregel.EdgeDirection
	// ScanPolicy selects dense vs. frontier-index triplet scanning
	// (Program.ScanPolicy); results are identical under every policy.
	ScanPolicy = pregel.ScanPolicy
	// SuperstepStats is the per-superstep work/traffic accounting.
	SuperstepStats = pregel.SuperstepStats
)

// Triplet scan directions (GraphX activeDirection).
const (
	DirectionOut    = pregel.Out
	DirectionIn     = pregel.In
	DirectionEither = pregel.Either
	DirectionBoth   = pregel.Both
	DirectionAll    = pregel.AllEdges
)

// Compute-phase scan policies. ScanAuto (the default) switches each
// partition to the sparse frontier-index path when under 12.5% of its local
// vertices are active, and scans densely otherwise; ScanDense and
// ScanSparse pin one path (for benchmarks and tests — the result never
// depends on the choice).
const (
	ScanAuto   = pregel.ScanAuto
	ScanDense  = pregel.ScanDense
	ScanSparse = pregel.ScanSparse
)

// ErrHalt, returned from Program.OnSuperstep, stops a run gracefully.
var ErrHalt = pregel.ErrHalt

// RunProgram executes a custom Pregel program on a partitioned graph. The
// returned values are aligned with pg.G.Vertices().
func RunProgram[V, M any](ctx context.Context, pg *PartitionedGraph, prog Program[V, M]) ([]V, *RunStats, error) {
	return pregel.Run(ctx, pg, prog)
}
