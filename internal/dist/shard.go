package dist

import (
	"fmt"
	"hash/fnv"

	"cutfit/internal/graph"
	"cutfit/internal/pregel"
	"cutfit/internal/snap"
)

// ownedParts returns the partitions worker wIdx of W owns under the fixed
// modulo placement. Placement is a pure function of (partition, W) so the
// coordinator and tests never disagree about who owns what.
func ownedParts(numParts, wIdx, W int) []int {
	var owned []int
	for p := wIdx; p < numParts; p += W {
		owned = append(owned, p)
	}
	return owned
}

// workerOf returns the worker index that owns partition p.
func workerOf(p, W int) int { return p % W }

// topoSum content-addresses the partitioned topology: an FNV-1a fold over
// every partition's local vertex table and edge list. Combined with the
// graph fingerprint it names a shard generation, so a worker holding a
// stale shard (e.g. after a coordinator restart rebuilt partitions
// differently) can never silently serve the wrong topology.
func topoSum(pg *pregel.PartitionedGraph) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := 0; i < 8; i++ {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	put(uint64(pg.NumParts))
	for p, part := range pg.Parts {
		put(uint64(p))
		put(uint64(len(part.LocalVerts)))
		for _, g := range part.LocalVerts {
			put(uint64(uint32(g)))
		}
		ne := part.NumEdges()
		put(uint64(ne))
		for j := 0; j < ne; j++ {
			s, d := part.EdgeAt(j)
			put(uint64(uint32(s))<<32 | uint64(uint32(d)))
		}
	}
	return h.Sum64()
}

// shardKey is the content-addressed identity of one worker's shard of one
// topology generation.
func shardKey(g *graph.Graph, sum uint64, numParts, wIdx, W int) string {
	return fmt.Sprintf("%016x-%016x-p%d-w%d.%d", g.Fingerprint(), sum, numParts, wIdx, W)
}

// extractShard builds worker wIdx's shard payload: its owned partitions
// in ascending order, which DecodeShard requires.
func extractShard(pg *pregel.PartitionedGraph, wIdx, W int) *snap.ShardPayload {
	g := pg.G
	sp := &snap.ShardPayload{
		GraphFP:  g.Fingerprint(),
		NumParts: pg.NumParts,
		NumVerts: g.NumVertices(),
		Verts:    g.Vertices(),
		OutDeg:   g.OutDegrees(),
	}
	for _, p := range ownedParts(pg.NumParts, wIdx, W) {
		part := pg.Parts[p]
		sh := snap.ShardPart{
			Index:      p,
			LocalVerts: part.LocalVerts,
			EdgeSrc:    make([]int32, part.NumEdges()),
			EdgeDst:    make([]int32, part.NumEdges()),
		}
		for j := range sh.EdgeSrc {
			sh.EdgeSrc[j], sh.EdgeDst[j] = part.EdgeAt(j)
		}
		sp.Parts = append(sp.Parts, sh)
	}
	return sp
}
