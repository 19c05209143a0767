package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"strings"
)

// WriteEdgeList writes the graph in SNAP-style text format: one "src dst"
// pair per live edge, tab separated, with a leading comment header.
// Tombstoned edges are not written (the text format has no liveness
// column); a weighted graph writes a third tab-separated weight field.
func (g *Graph) WriteEdgeList(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 1<<16)
	if _, err := fmt.Fprintf(bw, "# cutfit edge list: %d vertices, %d edges\n", g.NumVertices(), g.NumLiveEdges()); err != nil {
		return err
	}
	weighted := g.Weighted()
	if err := g.edgeBlocks(func(start int, edges []Edge, weights []float64) error {
		for i, e := range edges {
			if g.numDead != 0 && !g.EdgeAlive(start+i) {
				continue
			}
			var err error
			if weighted {
				_, err = fmt.Fprintf(bw, "%d\t%d\t%g\n", e.Src, e.Dst, weights[i])
			} else {
				_, err = fmt.Fprintf(bw, "%d\t%d\n", e.Src, e.Dst)
			}
			if err != nil {
				return err
			}
		}
		return nil
	}); err != nil {
		return err
	}
	return bw.Flush()
}

// streamBatchEdges is the batch granularity of StreamEdgeList: large
// enough to amortize the callback, small enough that the parser's working
// set stays a few hundred KiB regardless of input size.
const streamBatchEdges = 8192

// StreamEdgeList parses a SNAP-style text edge list (the ReadEdgeList
// format) and delivers the edges to fn in batches instead of materializing
// them: fn(edges, weights) where weights is nil until the stream encounters
// its first weighted line and aligned with edges afterwards (weight-less
// lines weigh 1). Batches delivered before the first weighted line
// implicitly weigh 1 per edge; a consumer building a weighted artifact must
// backfill ones for them, exactly as the dense tier's weight promotion
// does. The slices are reused between batches — fn must not retain them.
func StreamEdgeList(r io.Reader, fn func(edges []Edge, weights []float64) error) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	edges := make([]Edge, 0, streamBatchEdges)
	var weights []float64
	flush := func() error {
		if len(edges) == 0 {
			return nil
		}
		err := fn(edges, weights)
		edges = edges[:0]
		if weights != nil {
			weights = weights[:0]
		}
		return err
	}
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' || line[0] == '%' {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return fmt.Errorf("graph: line %d: expected \"src dst\", got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad source vertex %q: %w", lineNo, fields[0], err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return fmt.Errorf("graph: line %d: bad destination vertex %q: %w", lineNo, fields[1], err)
		}
		if len(fields) >= 3 {
			wt, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return fmt.Errorf("graph: line %d: bad edge weight %q: %w", lineNo, fields[2], err)
			}
			if !(wt > 0) || math.IsInf(wt, 1) {
				return fmt.Errorf("graph: line %d: edge weight %g must be finite and positive", lineNo, wt)
			}
			if weights == nil {
				weights = make([]float64, len(edges), streamBatchEdges)
				for i := range weights {
					weights[i] = 1
				}
			}
			weights = append(weights, wt)
		} else if weights != nil {
			weights = append(weights, 1)
		}
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(dst)})
		if len(edges) == streamBatchEdges {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("graph: scanning edge list: %w", err)
	}
	return flush()
}

// ReadEdgeList parses a SNAP-style text edge list: lines of "src dst"
// separated by whitespace, with an optional third field holding a
// positive float64 edge weight; lines starting with '#' or '%' are
// comments. If any line carries a weight the graph is weighted and
// weight-less lines default to 1. It streams through StreamEdgeList, so
// the parser never holds more than one batch beyond the graph itself.
func ReadEdgeList(r io.Reader) (*Graph, error) {
	g := New(1024)
	if err := StreamEdgeList(r, func(edges []Edge, weights []float64) error {
		if weights != nil && g.weights == nil {
			g.weights = make([]float64, len(g.edges), cap(g.edges))
			for i := range g.weights {
				g.weights[i] = 1
			}
		}
		g.edges = append(g.edges, edges...)
		if g.weights != nil {
			if weights != nil {
				g.weights = append(g.weights, weights...)
			} else {
				for range edges {
					g.weights = append(g.weights, 1)
				}
			}
		}
		return nil
	}); err != nil {
		return nil, err
	}
	g.invalidate()
	return g, nil
}

// ReadEdgeListBlocks parses the ReadEdgeList text format directly into a
// block-backed graph: batches stream from the parser into a BlockBuilder,
// so peak heap is one pending block plus the compressed payloads — the
// dense []Edge is never materialized. blockEdges 0 selects
// DefaultBlockEdges.
func ReadEdgeListBlocks(r io.Reader, blockEdges int) (*Graph, error) {
	bb := NewBlockBuilder(blockEdges)
	if err := StreamEdgeList(r, func(edges []Edge, weights []float64) error {
		bb.Append(edges, weights)
		return nil
	}); err != nil {
		return nil, err
	}
	return FromBlocks(bb.Finish()), nil
}

// Binary edge payload: edge count (uvarint), then per edge the src delta
// (zig-zag varint from the previous src) and dst (zig-zag varint from src).
// Sorting by src before writing makes the deltas small; the format does not
// require sorted input, it only compresses better with it.
//
// The payload has two users: the versioned, CRC-checked snapshot container
// in internal/snap (its graph section) and the block-compressed edge tier
// (one payload per block).

// EncodeEdges appends the delta-varint binary encoding of edges to dst and
// returns the extended slice.
func EncodeEdges(dst []byte, edges []Edge) []byte {
	var buf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(buf[:], uint64(len(edges)))
	dst = append(dst, buf[:n]...)
	var prevSrc int64
	for _, e := range edges {
		n = binary.PutVarint(buf[:], int64(e.Src)-prevSrc)
		dst = append(dst, buf[:n]...)
		n = binary.PutVarint(buf[:], int64(e.Dst)-int64(e.Src))
		dst = append(dst, buf[:n]...)
		prevSrc = int64(e.Src)
	}
	return dst
}

// DecodeEdges parses an EncodeEdges payload, requiring that it is consumed
// exactly (no trailing bytes). The declared edge count is validated against
// the payload size before any allocation, so a forged count can never force
// an allocation larger than the input itself.
func DecodeEdges(data []byte) ([]Edge, error) {
	return decodeEdgesInto(data, nil)
}

// decodeEdgesInto is DecodeEdges decoding into dst's capacity when it
// suffices (the block tier's scan path reuses one scratch slice across
// every block this way; pass nil to allocate fresh).
func decodeEdgesInto(data []byte, dst []Edge) ([]Edge, error) {
	count, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, fmt.Errorf("graph: reading edge count: malformed varint")
	}
	data = data[n:]
	// Every edge costs at least two varint bytes.
	if count > uint64(len(data))/2+1 {
		return nil, fmt.Errorf("graph: edge count %d exceeds payload size", count)
	}
	edges := dst[:0]
	if uint64(cap(edges)) < count {
		edges = make([]Edge, 0, count)
	}
	var prevSrc int64
	for i := uint64(0); i < count; i++ {
		ds, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("graph: edge %d: reading src: malformed varint", i)
		}
		data = data[n:]
		src := prevSrc + ds
		dd, n := binary.Varint(data)
		if n <= 0 {
			return nil, fmt.Errorf("graph: edge %d: reading dst: malformed varint", i)
		}
		data = data[n:]
		edges = append(edges, Edge{Src: VertexID(src), Dst: VertexID(src + dd)})
		prevSrc = src
	}
	if len(data) != 0 {
		return nil, fmt.Errorf("graph: %d trailing bytes after edge payload", len(data))
	}
	return edges, nil
}

// FromEdgesAndVertices restores a graph from a decoded edge list plus its
// sorted unique vertex list, as persisted by the snapshot codec. The vertex
// list is validated against the edges — strictly ascending, non-negative,
// every edge endpoint present, every listed vertex used — and then seeded
// as the graph's vertex view, so NumVertices and Vertices never pay the
// O(|E|) derivation scan on a restored graph. The graph starts at a fresh
// process-unique version (like Clone/Grow), so cache layers can never
// confuse it with a freed graph reallocated at the same address.
func FromEdgesAndVertices(edges []Edge, verts []VertexID) (*Graph, error) {
	if len(verts) > 0 && verts[0] < 0 {
		return nil, fmt.Errorf("graph: restored vertex list has negative vertex ID %d", verts[0])
	}
	for i := 1; i < len(verts); i++ {
		if verts[i] <= verts[i-1] {
			return nil, fmt.Errorf("graph: restored vertex list not strictly ascending at index %d", i)
		}
	}
	// Membership + coverage: every endpoint must be listed, every listed
	// vertex must be an endpoint. Dense ID spaces (all generators in this
	// module) take the O(1)-per-endpoint fast path.
	used := make([]bool, len(verts))
	dense := len(verts) > 0 && verts[0] == 0 && verts[len(verts)-1] == VertexID(len(verts)-1)
	locate := func(v VertexID) int {
		if dense {
			if v < 0 || int(v) >= len(verts) {
				return -1
			}
			return int(v)
		}
		if i, ok := slices.BinarySearch(verts, v); ok {
			return i
		}
		return -1
	}
	for i, e := range edges {
		si, di := locate(e.Src), locate(e.Dst)
		if si < 0 || di < 0 {
			return nil, fmt.Errorf("graph: edge %d (%d -> %d) has an endpoint missing from the restored vertex list", i, e.Src, e.Dst)
		}
		used[si] = true
		used[di] = true
	}
	for i, u := range used {
		if !u {
			return nil, fmt.Errorf("graph: restored vertex list entry %d (vertex %d) appears in no edge", i, verts[i])
		}
	}
	g := FromEdges(edges)
	g.verts = verts
	g.vertsOnce.markBuilt()
	g.version.Store(nextGenerationVersion())
	return g, nil
}

// FromBlocksAndVertices restores a block-backed graph from an assembled
// store plus its sorted unique vertex list, as persisted by the block
// snapshot codec. Unlike FromEdgesAndVertices, the edges stay encoded —
// only the vertex list's shape (strictly ascending, non-negative) is
// validated here; endpoint membership is implicitly covered by the codec's
// fingerprint check, because a wrong vertex list cannot reproduce the
// recorded fingerprint chain. The list is seeded as the graph's vertex
// view so restoring never pays the O(|E|) derivation scan.
func FromBlocksAndVertices(bs *BlockStore, verts []VertexID) (*Graph, error) {
	if len(verts) > 0 && verts[0] < 0 {
		return nil, fmt.Errorf("graph: restored vertex list has negative vertex ID %d", verts[0])
	}
	for i := 1; i < len(verts); i++ {
		if verts[i] <= verts[i-1] {
			return nil, fmt.Errorf("graph: restored vertex list not strictly ascending at index %d", i)
		}
	}
	g := FromBlocks(bs)
	g.verts = verts
	g.vertsOnce.markBuilt()
	return g, nil
}
