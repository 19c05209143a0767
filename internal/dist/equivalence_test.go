package dist

import (
	"context"
	"fmt"
	"math"
	"net/http/httptest"
	"reflect"
	"sort"
	"testing"

	"cutfit/internal/algorithms"
	"cutfit/internal/graph"
	"cutfit/internal/partition"
	"cutfit/internal/pregel"
	"cutfit/internal/rng"
)

// startCluster boots n workers on real 127.0.0.1 sockets and returns a
// pool over them. Each worker is a full HTTP stack — frames cross the
// loopback wire exactly as they would a network.
func startCluster(t *testing.T, n int) (*Pool, []*Worker) {
	t.Helper()
	workers := make([]*Worker, n)
	urls := make([]string, n)
	for i := range workers {
		workers[i] = NewWorker()
		srv := httptest.NewServer(workers[i].Handler())
		t.Cleanup(srv.Close)
		urls[i] = srv.URL
	}
	return NewPool(urls), workers
}

func randomGraph(seed uint64, maxV, maxE int) *graph.Graph {
	r := rng.New(seed)
	nv := 2 + r.Intn(maxV)
	ne := 1 + r.Intn(maxE)
	edges := make([]graph.Edge, ne)
	for i := range edges {
		edges[i] = graph.Edge{
			Src: graph.VertexID(r.Intn(nv)),
			Dst: graph.VertexID(r.Intn(nv)),
		}
	}
	return graph.FromEdges(edges)
}

// hubAndChain is the structured family: a star whose hub feeds a long
// chain, giving both a high-degree vertex and a deep propagation path.
func hubAndChain(spokes, chain int) *graph.Graph {
	var edges []graph.Edge
	for i := 1; i <= spokes; i++ {
		edges = append(edges, graph.Edge{Src: 0, Dst: graph.VertexID(i)})
	}
	prev := graph.VertexID(1)
	for i := 0; i < chain; i++ {
		next := graph.VertexID(spokes + 1 + i)
		edges = append(edges, graph.Edge{Src: prev, Dst: next})
		prev = next
	}
	return graph.FromEdges(edges)
}

func mustPartition(t *testing.T, g *graph.Graph, s partition.Strategy, parts int) *pregel.PartitionedGraph {
	t.Helper()
	assign, err := s.Partition(g, parts)
	if err != nil {
		t.Fatal(err)
	}
	pg, err := pregel.NewPartitionedGraph(g, assign, parts)
	if err != nil {
		t.Fatal(err)
	}
	return pg
}

// assertBitEqualF64 requires exact float64 bit equality — the distributed
// contract is bit-identical, not approximately-equal.
func assertBitEqualF64(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: got %d values, want %d", label, len(got), len(want))
	}
	for i := range want {
		if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
			t.Fatalf("%s: vertex %d: got %x (%g), want %x (%g)",
				label, i, math.Float64bits(got[i]), got[i], math.Float64bits(want[i]), want[i])
		}
	}
}

func assertStatsEqual(t *testing.T, label string, got, want *pregel.RunStats) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed stats diverge from local\n got: %+v\nwant: %+v", label, got, want)
	}
}

// wireNames returns the wire table's algorithm names, sorted.
func wireNames() []string {
	names := make([]string, 0, len(wireAlgs))
	for name := range wireAlgs {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

// assertOutputEqual requires a distributed output to match the local one:
// ranks bit for bit, every other result field exactly.
func assertOutputEqual(t *testing.T, label string, got, want algorithms.Output) {
	t.Helper()
	assertBitEqualF64(t, label, got.Ranks, want.Ranks)
	got.Ranks, want.Ranks = nil, nil
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: distributed output diverges from local", label)
	}
}

// TestDistributedEquivalence is the core contract: every algorithm in the
// wire table, over both graph families, several partition counts and
// round caps, produces bit-identical values AND identical engine
// statistics whether the supersteps run in-process or across workers on
// loopback sockets.
func TestDistributedEquivalence(t *testing.T) {
	ctx := context.Background()
	graphs := map[string]*graph.Graph{
		"random":   randomGraph(42, 60, 300),
		"hubchain": hubAndChain(12, 20),
	}
	strat := partition.RandomVertexCut()
	for _, W := range []int{1, 2, 3} {
		pool, _ := startCluster(t, W)
		for gname, g := range graphs {
			for _, parts := range []int{1, 4, 7} {
				pg := mustPartition(t, g, strat, parts)
				for _, name := range wireNames() {
					alg, err := algorithms.Lookup(name)
					if err != nil {
						t.Fatal(err)
					}
					for _, iters := range []int{0, 5, 20} {
						p, err := alg.Params(g, iters)
						if err != nil {
							continue // e.g. pagerank needs a positive round count
						}
						label := fmt.Sprintf("%s/%s/W=%d/parts=%d/iters=%d", name, gname, W, parts, iters)
						want, wantStats, err := alg.Run(ctx, pg, p)
						if err != nil {
							t.Fatal(err)
						}
						got, gotStats, err := Run(ctx, pool, pg, name, p)
						if err != nil {
							t.Fatalf("%s: %v", label, err)
						}
						assertOutputEqual(t, label, got, want)
						assertStatsEqual(t, label, gotStats, wantStats)
					}
				}
			}
		}
	}
}

// TestWireTableNamesRegistry keeps the wire table a subset of the
// algorithm registry, so a distributed binding cannot outlive or misspell
// the algorithm it serves.
func TestWireTableNamesRegistry(t *testing.T) {
	if len(wireAlgs) == 0 {
		t.Fatal("wire table is empty")
	}
	for _, name := range wireNames() {
		if _, err := algorithms.Lookup(name); err != nil {
			t.Errorf("wire table entry %q: %v", name, err)
		}
		if !Distributable(name) {
			t.Errorf("Distributable(%q) = false for a wire table entry", name)
		}
	}
	for _, name := range algorithms.Names() {
		if _, bound := wireAlgs[name]; bound {
			continue
		}
		if _, _, err := Run(context.Background(), NewPool(nil), nil, name, algorithms.Params{}); err == nil {
			t.Errorf("local-only algorithm %q dispatched distributed", name)
		}
	}
}

// TestDistributedGenerations grows and then shrinks a graph, running
// distributed after every generation step; the second and third runs must
// ship deltas, not full shards, and every run must stay bit-identical to
// the local engine.
func TestDistributedGenerations(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 2)
	strat := partition.RandomVertexCut()
	const parts = 5

	check := func(label string, pg *pregel.PartitionedGraph) {
		t.Helper()
		want, wantStats, err := algorithms.PageRank(ctx, pg, 6, algorithms.DefaultResetProb)
		if err != nil {
			t.Fatal(err)
		}
		got, gotStats, err := PageRank(ctx, pool, pg, 6, algorithms.DefaultResetProb)
		if err != nil {
			t.Fatalf("%s: dist pagerank: %v", label, err)
		}
		assertBitEqualF64(t, label, got, want)
		assertStatsEqual(t, label, gotStats, wantStats)

		wantCC, _, err := algorithms.ConnectedComponents(ctx, pg, 0)
		if err != nil {
			t.Fatal(err)
		}
		gotCC, _, err := ConnectedComponents(ctx, pool, pg, 0)
		if err != nil {
			t.Fatalf("%s: dist cc: %v", label, err)
		}
		if !reflect.DeepEqual(gotCC, wantCC) {
			t.Fatalf("%s: cc labels diverge", label)
		}
	}

	g1 := randomGraph(7, 50, 250)
	pg1 := mustPartition(t, g1, strat, parts)
	check("base", pg1)

	// Grow: append a batch touching both existing and brand-new vertices.
	nv := int32(g1.NumVertices())
	batch := []graph.Edge{
		{Src: 0, Dst: graph.VertexID(nv + 1)},
		{Src: graph.VertexID(nv + 1), Dst: graph.VertexID(nv + 2)},
		{Src: graph.VertexID(nv + 2), Dst: 0},
		{Src: 1, Dst: graph.VertexID(nv + 3)},
	}
	g2, _ := g1.Grow(batch)
	pg2 := mustPartition(t, g2, strat, parts)

	deltasBefore := cShards.With("delta").Value()
	check("grown", pg2)
	if got := cShards.With("delta").Value(); got <= deltasBefore {
		t.Fatalf("grown generation shipped no delta shards (counter %d -> %d)", deltasBefore, got)
	}

	// Shrink: retire the oldest quarter of the edge window.
	g3, _ := g2.ShrinkBefore(g2.NumEdges() / 4)
	pg3 := mustPartition(t, g3, strat, parts)
	deltasBefore = cShards.With("delta").Value()
	check("shrunk", pg3)
	if got := cShards.With("delta").Value(); got <= deltasBefore {
		t.Logf("note: shrunk generation shipped full shards (counter %d -> %d)", deltasBefore, got)
	}
}

// TestShardReuse verifies that re-running on an unchanged topology ships
// nothing: the second run reuses the worker-resident shard.
func TestShardReuse(t *testing.T) {
	ctx := context.Background()
	pool, _ := startCluster(t, 2)
	pg := mustPartition(t, hubAndChain(8, 10), partition.RandomVertexCut(), 4)

	if _, _, err := PageRank(ctx, pool, pg, 3, algorithms.DefaultResetProb); err != nil {
		t.Fatal(err)
	}
	reusedBefore := cShards.With("reused").Value()
	fullBefore := cShards.With("full").Value()
	if _, _, err := PageRank(ctx, pool, pg, 3, algorithms.DefaultResetProb); err != nil {
		t.Fatal(err)
	}
	if got := cShards.With("reused").Value(); got != reusedBefore+2 {
		t.Fatalf("second run reused %d shards, want 2", got-reusedBefore)
	}
	if got := cShards.With("full").Value(); got != fullBefore {
		t.Fatalf("second run shipped %d full shards, want 0", got-fullBefore)
	}
}

// TestWorkerEvictionRecovery kills a worker's shard cache between runs
// (simulating a worker restart); RunStart's 404 must trigger a full
// re-ship and the run must still succeed.
func TestWorkerEvictionRecovery(t *testing.T) {
	ctx := context.Background()
	pool, workers := startCluster(t, 2)
	pg := mustPartition(t, randomGraph(11, 40, 160), partition.RandomVertexCut(), 4)

	want, _, err := algorithms.PageRank(ctx, pg, 4, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := PageRank(ctx, pool, pg, 4, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatal(err)
	}
	assertBitEqualF64(t, "before restart", got, want)

	// Wipe worker 0's state behind the coordinator's back.
	workers[0].mu.Lock()
	workers[0].shards = make(map[string]*workerShard)
	workers[0].order = nil
	workers[0].mu.Unlock()

	got, _, err = PageRank(ctx, pool, pg, 4, algorithms.DefaultResetProb)
	if err != nil {
		t.Fatalf("run after worker wipe: %v", err)
	}
	assertBitEqualF64(t, "after restart", got, want)
}
