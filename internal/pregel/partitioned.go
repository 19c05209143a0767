// Package pregel implements a GraphX-style vertex-cut Bulk-Synchronous
// Parallel engine. Edges are distributed into partitions by a partitioning
// strategy; each partition reconstructs local copies (mirrors) of the
// vertices its edges touch; a master copy of every vertex lives outside the
// edge partitions (GraphX's VertexRDD). Every superstep proceeds in three
// phases, exactly mirroring GraphX's communication pattern:
//
//  1. broadcast: updated master values are shipped to every mirror — this
//     traffic is what the CommCost metric counts;
//  2. compute: each partition scans its active triplets in parallel and
//     combines emitted messages locally per destination vertex;
//  3. reduce: one partial aggregate per (partition, vertex) is shipped back
//     to the master and merged, then the vertex program is applied.
//
// The engine executes genuinely in parallel (one goroutine per partition,
// sharded master apply) and simultaneously counts every message and byte
// crossing a partition boundary; the cluster package converts those counts
// into simulated wall-clock time for a configurable cluster.
//
// # Partition construction
//
// NewPartitionedGraph builds the partitioned topology with a dense
// sort/scatter algorithm rather than per-partition hash maps, because the
// advisor's empirical-selection loop rebuilds it once per candidate
// strategy and the build cost dominates that loop:
//
//  1. count: one pass over the edge assignment counts edges per partition
//     (sharded over the worker pool) and validates every PID;
//  2. scatter: prefix sums over the per-(shard, partition) counts give
//     every shard a private cursor into one contiguous edge buffer, so all
//     shards scatter their edges concurrently without locks while
//     preserving global edge order within each partition (the AssignOrder
//     alignment contract);
//  3. localize: each partition — fanned out over the worker pool — marks
//     its edge endpoints in a per-worker vertex bitset, emits the set bits
//     in order as the LocalVerts mirror table (sorted and deduplicated by
//     construction), and rewrites its edges to local indices by O(1) rank
//     queries.
//
// The only allocations retained per partition are the exact-size LocalVerts
// table and a subslice of the shared edge buffer; all intermediate state
// lives in per-worker scratch that is reused across the partitions a worker
// processes. The reference hash-map construction is kept (unexported) as
// the equivalence oracle for tests and as the benchmark baseline.
package pregel

import (
	"fmt"
	"math/bits"
	"sync"
	"sync/atomic"

	"cutfit/internal/graph"
	"cutfit/internal/par"
	"cutfit/internal/partition"
)

// localEdge is an edge expressed in partition-local vertex indices.
type localEdge struct {
	src, dst int32 // indices into Partition.LocalVerts
}

// Partition is one edge partition with its local vertex mirror table.
type Partition struct {
	// LocalVerts maps local vertex index -> global dense vertex index,
	// sorted ascending by global index.
	LocalVerts []int32
	edges      []localEdge

	// srcOff/srcPos and dstOff/dstPos are the frontier index: two CSR
	// groupings of the partition's edge positions by local source and local
	// destination vertex. Edges of local vertex l are
	// srcPos[srcOff[l]:srcOff[l+1]] (positions into edges, ascending within
	// each group because the grouping pass is a stable counting sort). The
	// engine's sparse compute path walks only the groups of frontier-active
	// vertices instead of scanning every edge. The index costs 8 bytes per
	// edge, so it is built lazily on the first sparse scan that needs it
	// (frontierOnce) — dense-only workloads such as full PageRank supersteps
	// never pay for it — and never changes afterwards: it is a pure function
	// of the edge list, which is immutable once the partition is built.
	srcOff, srcPos []int32
	dstOff, dstPos []int32
	frontierOnce   sync.Once
	frontierBuilt  atomic.Bool // for lock-free footprint accounting only
}

// ensureFrontierIndex builds the partition's frontier index on first use.
// Safe for concurrent callers; after it returns the index fields are
// readable without further synchronization.
func (p *Partition) ensureFrontierIndex() {
	p.frontierOnce.Do(func() {
		buildEdgeIndex(p)
		p.frontierBuilt.Store(true)
	})
}

// NumEdges returns the number of edges in the partition.
func (p *Partition) NumEdges() int { return len(p.edges) }

// EdgeAt returns the local vertex indices of the partition's j-th edge.
func (p *Partition) EdgeAt(j int) (src, dst int32) {
	e := p.edges[j]
	return e.src, e.dst
}

// NumLocalVertices returns the number of distinct vertices reconstructed in
// the partition.
func (p *Partition) NumLocalVertices() int { return len(p.LocalVerts) }

// mirrorRef locates one mirror of a vertex: partition p, local slot l.
type mirrorRef struct {
	part  int32
	local int32
}

// BuildOptions tunes partitioned-graph construction and engine execution.
// The zero value is ready to use.
type BuildOptions struct {
	// Parallelism is the number of worker goroutines used for the build
	// and for all engine phases; values < 1 default to GOMAXPROCS.
	Parallelism int
	// ReuseBuffers lets the engine park its run-scoped scratch (mirror
	// value/activity tables, combine accumulators, per-phase counters) in
	// per-program-type pools on the PartitionedGraph between runs, so
	// repeated runs over the same topology — benchmark loops, advisor
	// selection, concurrent serving — reallocate nothing. Pools hold up to
	// max(4, Parallelism) scratches per program type, so N simultaneous
	// Runs of one algorithm all reuse buffers; runs that find their pool
	// empty fall back to fresh allocation.
	ReuseBuffers bool
}

// PartitionedGraph is the topology shared by all jobs: the per-partition
// edge lists, local vertex tables and the mirror routing table.
type PartitionedGraph struct {
	G        *graph.Graph
	NumParts int
	Parts    []*Partition

	// assign is the original per-edge partition assignment, retained so
	// jobs can align global edge order with per-partition edge order.
	assign []partition.PID

	// routingOffsets/routingRefs form a CSR over global dense vertex
	// indices: mirrors of vertex v are
	// routingRefs[routingOffsets[v]:routingOffsets[v+1]].
	routingOffsets []int64
	routingRefs    []mirrorRef

	// Parallelism is the number of worker goroutines used for partition
	// phases; defaults to GOMAXPROCS.
	Parallelism int

	// ReuseBuffers enables engine scratch reuse across runs (see
	// BuildOptions.ReuseBuffers).
	ReuseBuffers bool

	// scratchMu guards scratchPools: per-program-type stacks of parked
	// engine scratches, keyed by the scratch's concrete type. Pools — not
	// single slots — so N simultaneous Runs of the same algorithm on one
	// graph each check out their own buffer set and park it back on
	// completion; different [V, M]-typed programs (PageRank's float64s,
	// CC's vertex IDs) keep separate pools and never evict each other.
	scratchMu    sync.Mutex
	scratchPools map[string][]any
}

// maxScratchTypes bounds how many distinct program types park scratches on
// one PartitionedGraph; beyond it, additional types simply run with fresh
// buffers. Generously above the built-in algorithm mix, it exists so a
// server executing arbitrary custom programs cannot grow the pool map
// without bound.
const maxScratchTypes = 8

// minScratchDepth is the per-type pool depth floor. The effective depth is
// max(minScratchDepth, Parallelism): concurrency beyond the worker pool
// gains nothing from extra parked buffers, but a small floor keeps
// low-parallelism builds useful under bursty concurrent load.
const minScratchDepth = 4

// scratchDepth returns the per-program-type pool bound.
func (pg *PartitionedGraph) scratchDepth() int {
	if pg.Parallelism > minScratchDepth {
		return pg.Parallelism
	}
	return minScratchDepth
}

// NewPartitionedGraph builds the partitioned representation from an edge
// assignment (one PID per edge, aligned with g.Edges()) with default
// options.
func NewPartitionedGraph(g *graph.Graph, assign []partition.PID, numParts int) (*PartitionedGraph, error) {
	return NewPartitionedGraphOpts(g, assign, numParts, BuildOptions{})
}

// NewPartitionedGraphOpts builds the partitioned representation with the
// sort/scatter algorithm described in the package comment, fanning
// per-partition work over opts.Parallelism workers.
func NewPartitionedGraphOpts(g *graph.Graph, assign []partition.PID, numParts int, opts BuildOptions) (*PartitionedGraph, error) {
	if numParts <= 0 {
		return nil, fmt.Errorf("pregel: numParts must be positive, got %d", numParts)
	}
	ne := g.NumEdges()
	if len(assign) != ne {
		return nil, fmt.Errorf("pregel: assignment has %d entries for %d edges", len(assign), ne)
	}
	workers := opts.Parallelism
	if workers < 1 {
		workers = par.DefaultParallelism()
	}

	pg := &PartitionedGraph{
		G:            g,
		NumParts:     numParts,
		assign:       assign,
		Parallelism:  workers,
		ReuseBuffers: opts.ReuseBuffers,
	}
	if err := pg.buildSortScatter(); err != nil {
		return nil, err
	}
	pg.buildRouting()
	// The frontier index is NOT built here: each partition builds it lazily
	// on its first sparse scan (ensureFrontierIndex), so dense-only
	// workloads never hold the extra 8 bytes per edge.
	return pg, nil
}

// buildSortScatter populates Parts from the edge assignment: parallel
// counting sort of edges into one contiguous buffer, then per-partition
// local vertex tables by sort + dedup. Tombstoned edges are validated (the
// assignment stays dense-aligned) but never scattered: partitions hold live
// edges only, exactly as a rebuild over the compacted list would produce.
func (pg *PartitionedGraph) buildSortScatter() error {
	g, assign, numParts := pg.G, pg.assign, pg.NumParts
	ne := len(assign)
	numDead := g.NumDeadEdges()

	// A block-backed graph scatters block at a time through per-worker
	// decode scratch — the O(E) endpoint-index slices of the dense path are
	// never materialized, which is most of the peak-heap win at scale.
	if g.BlockBacked() {
		return pg.buildSortScatterBlocks()
	}
	srcIdx, dstIdx := g.EdgeEndpointIndices()

	shards := pg.Parallelism
	if shards > ne {
		shards = ne
	}
	if shards < 1 {
		shards = 1
	}
	chunk := (ne + shards - 1) / shards

	// Pass 1: per-(shard, partition) edge counts, sharded over contiguous
	// edge ranges. Each shard validates its own PIDs.
	shardCounts := make([]int64, shards*numParts)
	var badEdge, badPID int64 = -1, 0
	var badMu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > ne {
			hi = ne
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			counts := shardCounts[s*numParts : (s+1)*numParts]
			for i := lo; i < hi; i++ {
				p := assign[i]
				if p < 0 || int(p) >= numParts {
					badMu.Lock()
					if badEdge < 0 || int64(i) < badEdge {
						badEdge, badPID = int64(i), int64(p)
					}
					badMu.Unlock()
					return
				}
				if numDead != 0 && !g.EdgeAlive(i) {
					continue
				}
				counts[p]++
			}
		}(s, lo, hi)
	}
	wg.Wait()
	if badEdge >= 0 {
		return fmt.Errorf("pregel: edge %d assigned to out-of-range partition %d", badEdge, badPID)
	}

	// Prefix sums: partStart[p] is the partition's region in the shared
	// edge buffer; cursors[s*numParts+p] is shard s's write position inside
	// it. Shards are contiguous ascending edge ranges, so this preserves
	// global edge order within every partition.
	partStart := make([]int64, numParts+1)
	for p := 0; p < numParts; p++ {
		var total int64
		for s := 0; s < shards; s++ {
			total += shardCounts[s*numParts+p]
		}
		partStart[p+1] = partStart[p] + total
	}
	cursors := shardCounts // reuse: overwrite counts with absolute cursors
	for p := 0; p < numParts; p++ {
		pos := partStart[p]
		for s := 0; s < shards; s++ {
			c := shardCounts[s*numParts+p]
			cursors[s*numParts+p] = pos
			pos += c
		}
	}

	// Pass 2: scatter. Edges are staged with their *global* dense endpoint
	// indices; the localize pass rewrites them in place to local indices.
	// The buffer holds live edges only — the count pass skipped tombstones
	// with the same predicate, so the cursors line up exactly.
	edgeBuf := make([]localEdge, partStart[numParts])
	for s := 0; s < shards; s++ {
		lo, hi := s*chunk, (s+1)*chunk
		if hi > ne {
			hi = ne
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			cur := cursors[s*numParts : (s+1)*numParts]
			for i := lo; i < hi; i++ {
				if numDead != 0 && !g.EdgeAlive(i) {
					continue
				}
				p := assign[i]
				edgeBuf[cur[p]] = localEdge{src: srcIdx[i], dst: dstIdx[i]}
				cur[p]++
			}
		}(s, lo, hi)
	}
	wg.Wait()

	pg.scatterFinish(edgeBuf, partStart)
	return nil
}

// buildSortScatterBlocks is buildSortScatter for block-backed graphs: the
// same counting sort, but shards cover contiguous BLOCK ranges (the count
// and scatter passes walk identical edge spans, so the cursors line up)
// and each scatter worker decodes its blocks into private scratch,
// resolving endpoint indices per block with the batch lookup instead of
// the O(E) EdgeEndpointIndices slices.
func (pg *PartitionedGraph) buildSortScatterBlocks() error {
	g, assign, numParts := pg.G, pg.assign, pg.NumParts
	bs := g.Blocks()
	ne := len(assign)
	numDead := g.NumDeadEdges()
	blockEdges := bs.BlockEdges()
	numBlocks := bs.NumBlocks()

	// Build the vertex index once up front so the concurrent per-block
	// endpoint lookups below never race on construction.
	g.LookupIndices(nil, nil, nil)

	shards := pg.Parallelism
	if shards > numBlocks {
		shards = numBlocks
	}
	if shards < 1 {
		shards = 1
	}
	bchunk := (numBlocks + shards - 1) / shards

	// Pass 1: per-(shard, partition) live edge counts over block-aligned
	// edge ranges. Needs only the assignment and tombstones, never the
	// edges themselves.
	shardCounts := make([]int64, shards*numParts)
	var badEdge, badPID int64 = -1, 0
	var badMu sync.Mutex
	var wg sync.WaitGroup
	for s := 0; s < shards; s++ {
		lo, hi := s*bchunk*blockEdges, (s+1)*bchunk*blockEdges
		if hi > ne {
			hi = ne
		}
		wg.Add(1)
		go func(s, lo, hi int) {
			defer wg.Done()
			counts := shardCounts[s*numParts : (s+1)*numParts]
			for i := lo; i < hi; i++ {
				p := assign[i]
				if p < 0 || int(p) >= numParts {
					badMu.Lock()
					if badEdge < 0 || int64(i) < badEdge {
						badEdge, badPID = int64(i), int64(p)
					}
					badMu.Unlock()
					return
				}
				if numDead != 0 && !g.EdgeAlive(i) {
					continue
				}
				counts[p]++
			}
		}(s, lo, hi)
	}
	wg.Wait()
	if badEdge >= 0 {
		return fmt.Errorf("pregel: edge %d assigned to out-of-range partition %d", badEdge, badPID)
	}

	partStart := make([]int64, numParts+1)
	for p := 0; p < numParts; p++ {
		var total int64
		for s := 0; s < shards; s++ {
			total += shardCounts[s*numParts+p]
		}
		partStart[p+1] = partStart[p] + total
	}
	cursors := shardCounts // reuse: overwrite counts with absolute cursors
	for p := 0; p < numParts; p++ {
		pos := partStart[p]
		for s := 0; s < shards; s++ {
			c := shardCounts[s*numParts+p]
			cursors[s*numParts+p] = pos
			pos += c
		}
	}

	// Pass 2: scatter, one worker per contiguous block range, decoding
	// into per-worker scratch.
	edgeBuf := make([]localEdge, partStart[numParts])
	errs := make([]error, shards)
	for s := 0; s < shards; s++ {
		b0, b1 := s*bchunk, (s+1)*bchunk
		if b1 > numBlocks {
			b1 = numBlocks
		}
		wg.Add(1)
		go func(s, b0, b1 int) {
			defer wg.Done()
			cur := cursors[s*numParts : (s+1)*numParts]
			var ebuf []graph.Edge
			var sidx, didx []int32
			for b := b0; b < b1; b++ {
				es, err := bs.DecodeBlockEdges(b, ebuf)
				if err != nil {
					errs[s] = err
					return
				}
				ebuf = es[:0]
				if cap(sidx) < len(es) {
					sidx = make([]int32, len(es))
					didx = make([]int32, len(es))
				}
				sidx, didx = sidx[:len(es)], didx[:len(es)]
				g.LookupIndices(es, sidx, didx)
				start := b * blockEdges
				for j := range es {
					i := start + j
					if numDead != 0 && !g.EdgeAlive(i) {
						continue
					}
					p := assign[i]
					edgeBuf[cur[p]] = localEdge{src: sidx[j], dst: didx[j]}
					cur[p]++
				}
			}
		}(s, b0, b1)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return fmt.Errorf("pregel: %w", err)
		}
	}
	pg.scatterFinish(edgeBuf, partStart)
	return nil
}

// scatterFinish slices the shared edge buffer into Parts and runs the
// localize pass (pass 3) on the worker pool: per-partition local vertex
// tables by sort + dedup, then in-place rewrite of the staged global
// endpoint indices to local ones. Every worker owns one growable endpoint
// scratch reused across the partitions it takes.
func (pg *PartitionedGraph) scatterFinish(edgeBuf []localEdge, partStart []int64) {
	numParts := pg.NumParts
	parts := make([]*Partition, numParts)
	for p := range parts {
		parts[p] = &Partition{edges: edgeBuf[partStart[p]:partStart[p+1]:partStart[p+1]]}
	}
	pg.Parts = parts
	workers := pg.Parallelism
	if workers > numParts {
		workers = numParts
	}
	if workers < 1 {
		workers = 1
	}
	tasks := make(chan int, numParts)
	for p := 0; p < numParts; p++ {
		tasks <- p
	}
	close(tasks)
	nv := pg.G.NumVertices()
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			var scratch localizeScratch
			for p := range tasks {
				scratch.localize(parts[p], nv)
			}
		}()
	}
	wg.Wait()
}

// buildEdgeIndex builds the partition's frontier index: stable counting
// sorts of the edge positions grouped by local source and by local
// destination. O(|edges| + |LocalVerts|), no comparison sort. The offset
// tables double as scatter cursors (shifted one slot during the fill,
// restored by a final copy-down), as in buildRouting.
func buildEdgeIndex(part *Partition) {
	n := len(part.LocalVerts)
	m := len(part.edges)
	srcOff := make([]int32, n+1)
	dstOff := make([]int32, n+1)
	for _, e := range part.edges {
		srcOff[e.src+1]++
		dstOff[e.dst+1]++
	}
	for i := 0; i < n; i++ {
		srcOff[i+1] += srcOff[i]
		dstOff[i+1] += dstOff[i]
	}
	srcPos := make([]int32, m)
	dstPos := make([]int32, m)
	for j, e := range part.edges {
		srcPos[srcOff[e.src]] = int32(j)
		srcOff[e.src]++
		dstPos[dstOff[e.dst]] = int32(j)
		dstOff[e.dst]++
	}
	copy(srcOff[1:], srcOff[:n])
	srcOff[0] = 0
	copy(dstOff[1:], dstOff[:n])
	dstOff[0] = 0
	part.srcOff, part.srcPos = srcOff, srcPos
	part.dstOff, part.dstPos = dstOff, dstPos
}

// localizeScratch is one scatter worker's reusable vertex-presence state:
// a bitset over global dense vertex indices plus a per-word rank prefix.
// Both are O(numVertices/64) — replacing the old sort-based localization
// whose scratch was O(2·partitionEdges) per concurrent worker, which at
// out-of-core scale stacked up to an extra 8 bytes per edge of transient
// peak heap during every build.
type localizeScratch struct {
	words []uint64 // presence bitset, indexed by global vertex index
	rank  []int32  // rank[w] = set bits in words[:w]
}

// localize builds part.LocalVerts and rewrites the staged global endpoint
// indices to local ones. Marking endpoints in a bitset and emitting set
// bits in word order yields exactly the sorted deduplicated table the old
// sort+dedup produced, and each rewrite is an O(1) rank query (prefix
// table + popcount within the word) instead of a binary search.
func (s *localizeScratch) localize(part *Partition, nv int) {
	edges := part.edges
	if len(edges) == 0 {
		return
	}
	nw := (nv + 63) / 64
	if cap(s.words) < nw {
		s.words = make([]uint64, nw)
		s.rank = make([]int32, nw+1)
	}
	words, rank := s.words[:nw], s.rank[:nw+1]
	for _, e := range edges {
		words[e.src>>6] |= 1 << (uint32(e.src) & 63)
		words[e.dst>>6] |= 1 << (uint32(e.dst) & 63)
	}
	n := int32(0)
	for w, word := range words {
		rank[w] = n
		n += int32(bits.OnesCount64(word))
	}
	rank[nw] = n
	lv := make([]int32, n)
	for w, word := range words {
		base := int32(w << 6)
		at := rank[w]
		for word != 0 {
			lv[at] = base + int32(bits.TrailingZeros64(word))
			word &= word - 1
			at++
		}
	}
	part.LocalVerts = lv
	local := func(g int32) int32 {
		return rank[g>>6] + int32(bits.OnesCount64(words[g>>6]&(1<<(uint32(g)&63)-1)))
	}
	for j, e := range edges {
		edges[j] = localEdge{src: local(e.src), dst: local(e.dst)}
	}
	// Clear only the words this partition touched, via the vertex table
	// itself — partitions far smaller than the graph don't pay O(nv).
	for _, g := range lv {
		words[g>>6] = 0
	}
}

// buildRouting constructs the mirror routing CSR from the per-partition
// local vertex tables. Mirror refs of a vertex are ordered by ascending
// partition, matching the reference construction. The fill pass uses the
// offsets themselves as cursors (shifting them one slot, restored by a
// final copy-down) instead of a separate per-vertex cursor array.
func (pg *PartitionedGraph) buildRouting() {
	nv := pg.G.NumVertices()
	offsets := make([]int64, nv+1)
	for p := 0; p < pg.NumParts; p++ {
		for _, gidx := range pg.Parts[p].LocalVerts {
			offsets[gidx+1]++
		}
	}
	for i := 0; i < nv; i++ {
		offsets[i+1] += offsets[i]
	}
	refs := make([]mirrorRef, offsets[nv])
	for p := 0; p < pg.NumParts; p++ {
		for l, gidx := range pg.Parts[p].LocalVerts {
			refs[offsets[gidx]] = mirrorRef{part: int32(p), local: int32(l)}
			offsets[gidx]++
		}
	}
	copy(offsets[1:], offsets[:nv])
	offsets[0] = 0
	pg.routingOffsets = offsets
	pg.routingRefs = refs
}

// AssignOrder returns the original per-edge partition assignment, aligned
// with G.Edges(). Edges were appended to each partition in this order, so
// a second pass over it reproduces local edge indices. Callers must not
// modify the returned slice.
func (pg *PartitionedGraph) AssignOrder() []partition.PID { return pg.assign }

// ForEachPartition runs fn(p) for every partition index on the worker
// pool, blocking until all complete. fn is called concurrently and must
// only write state owned by its partition. A panic in fn is returned as
// an error.
func (pg *PartitionedGraph) ForEachPartition(fn func(p int)) error { return pg.forEachPart(fn) }

// Mirrors returns the number of partitions vertex v (global dense index) is
// replicated into.
func (pg *PartitionedGraph) Mirrors(v int32) int {
	return int(pg.routingOffsets[v+1] - pg.routingOffsets[v])
}

// mirrorsOf returns the mirror references of v.
func (pg *PartitionedGraph) mirrorsOf(v int32) []mirrorRef {
	return pg.routingRefs[pg.routingOffsets[v]:pg.routingOffsets[v+1]]
}

// ForEachMirror visits every (partition, local slot) mirror of global dense
// vertex v, in the routing CSR's order (ascending partition, then ascending
// local slot). The distributed broadcast path walks this to address mirror
// updates exactly as the in-process broadcast phase does.
func (pg *PartitionedGraph) ForEachMirror(v int32, fn func(part, local int32)) {
	for _, ref := range pg.mirrorsOf(v) {
		fn(ref.part, ref.local)
	}
}

// TotalMirrors returns the total number of mirror slots across all
// partitions (= Σ_v Mirrors(v) = metrics CommCost + NonCut).
func (pg *PartitionedGraph) TotalMirrors() int64 {
	return int64(len(pg.routingRefs))
}

// MemoryFootprint approximates the bytes retained by the partitioned
// topology itself — the shared edge buffer, per-partition mirror tables,
// the routing CSR and the retained assignment — excluding the underlying
// Graph and any parked engine scratch. Cache layers use it as the eviction
// cost of a built topology.
func (pg *PartitionedGraph) MemoryFootprint() int64 {
	b := int64(len(pg.assign)) * 4
	b += int64(len(pg.routingOffsets)) * 8
	b += int64(len(pg.routingRefs)) * 8
	for _, part := range pg.Parts {
		b += int64(len(part.edges))*8 + int64(len(part.LocalVerts))*4
		// Frontier index: two position arrays and two offset tables. Built
		// lazily, so a topology that has only run dense scans costs nothing
		// here. The size is computed from the flag rather than the slices —
		// accounting may run concurrently with a sparse scan's lazy build,
		// and the atomic flag is ordered after the fields are published.
		if part.frontierBuilt.Load() {
			m, n := int64(len(part.edges)), int64(len(part.LocalVerts))
			b += 2*m*4 + 2*(n+1)*4
		}
	}
	return b
}

// takeScratch checks out one parked engine scratch of the given program
// type, or nil when that type's pool is empty. Other types' pools are
// untouched.
func (pg *PartitionedGraph) takeScratch(typeKey string) any {
	pg.scratchMu.Lock()
	defer pg.scratchMu.Unlock()
	pool := pg.scratchPools[typeKey]
	n := len(pool)
	if n == 0 {
		return nil
	}
	s := pool[n-1]
	pool[n-1] = nil
	pg.scratchPools[typeKey] = pool[:n-1]
	return s
}

// putScratch parks an engine scratch in its program type's pool; a full
// pool (or a full type map) drops it for the garbage collector.
func (pg *PartitionedGraph) putScratch(typeKey string, s any) {
	pg.scratchMu.Lock()
	defer pg.scratchMu.Unlock()
	pool, ok := pg.scratchPools[typeKey]
	if !ok && len(pg.scratchPools) >= maxScratchTypes {
		return
	}
	if len(pool) >= pg.scratchDepth() {
		return
	}
	if pg.scratchPools == nil {
		pg.scratchPools = make(map[string][]any)
	}
	pg.scratchPools[typeKey] = append(pool, s)
}

// parkedScratches reports how many scratches of the given type are parked
// (test hook).
func (pg *PartitionedGraph) parkedScratches(typeKey string) int {
	pg.scratchMu.Lock()
	defer pg.scratchMu.Unlock()
	return len(pg.scratchPools[typeKey])
}

// panicCatcher records the first panic raised by any pool worker so it can
// be surfaced as an error instead of crashing the process from a goroutine.
type panicCatcher struct {
	once sync.Once
	err  error
}

func (pc *panicCatcher) capture() {
	if r := recover(); r != nil {
		pc.once.Do(func() {
			pc.err = fmt.Errorf("pregel: user program panicked: %v", r)
		})
	}
}

// forEachPart runs fn(p) for every partition index on the worker pool,
// blocking until all complete. A panic in fn is captured and returned as
// an error (remaining work may be skipped or completed).
func (pg *PartitionedGraph) forEachPart(fn func(p int)) error {
	par := pg.Parallelism
	if par < 1 {
		par = 1
	}
	if par > pg.NumParts {
		par = pg.NumParts
	}
	var wg sync.WaitGroup
	var pc panicCatcher
	next := make(chan int, pg.NumParts)
	for p := 0; p < pg.NumParts; p++ {
		next <- p
	}
	close(next)
	wg.Add(par)
	for w := 0; w < par; w++ {
		go func() {
			defer wg.Done()
			for p := range next {
				func() {
					defer pc.capture()
					fn(p)
				}()
			}
		}()
	}
	wg.Wait()
	return pc.err
}

// forEachShard splits [0, n) into parallelism contiguous shards and runs
// fn(lo, hi) for each on the worker pool. Panics in fn are captured and
// returned as an error.
func (pg *PartitionedGraph) forEachShard(n int, fn func(lo, hi int)) error {
	par := pg.Parallelism
	if par < 1 {
		par = 1
	}
	if par > n {
		par = n
	}
	if n == 0 {
		return nil
	}
	var wg sync.WaitGroup
	var pc panicCatcher
	chunk := (n + par - 1) / par
	for lo := 0; lo < n; lo += chunk {
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(lo, hi int) {
			defer wg.Done()
			defer pc.capture()
			fn(lo, hi)
		}(lo, hi)
	}
	wg.Wait()
	return pc.err
}
